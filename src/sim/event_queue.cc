#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace kvmarm {

EventQueue::~EventQueue()
{
    for (Event *ev : heap_)
        delete ev;
    for (Event *ev : pool_)
        delete ev;
}

EventQueue::Event *
EventQueue::allocEvent()
{
    if (!pool_.empty()) {
        Event *ev = pool_.back();
        pool_.pop_back();
        return ev;
    }
    ++heapAllocs_;
    return new Event{};
}

void
EventQueue::recycle(Event *ev)
{
    ev->cb = nullptr; // release the closure's captures now, not at reuse
    pool_.push_back(ev);
}

void
EventQueue::forgetKick(std::uint64_t id)
{
    for (auto it = pendingKicks_.begin(); it != pendingKicks_.end(); ++it) {
        if (it->id == id) {
            *it = pendingKicks_.back();
            pendingKicks_.pop_back();
            return;
        }
    }
}

std::uint64_t
EventQueue::schedule(Cycles when, Callback cb, Kind kind)
{
    if (kind == Kind::Kick) {
        for (const PendingKick &pk : pendingKicks_) {
            if (pk.when == when) {
                // A kick at this cycle is already pending; a second Event
                // would run the same no-op twice. Elide it, but keep the
                // onSchedule notification: the machine scheduler's wake
                // bookkeeping must be identical whether or not we coalesce.
                ++kicksCoalesced_;
                if (onSchedule)
                    onSchedule(when);
                return pk.id;
            }
        }
    }
    Event *ev = allocEvent();
    ev->when = when;
    ev->seq = nextSeq_++;
    ev->id = nextId_++;
    ev->kind = kind;
    ev->cb = std::move(cb);
    ev->cancelled = false;
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    if (kind == Kind::Kick)
        pendingKicks_.push_back({when, ev->id});
    if (onSchedule)
        onSchedule(when);
    return ev->id;
}

bool
EventQueue::cancel(std::uint64_t id)
{
    for (Event *ev : heap_) {
        if (ev->id == id && !ev->cancelled) {
            ev->cancelled = true;
            --live_;
            if (ev->kind == Kind::Kick)
                forgetKick(id);
            return true;
        }
    }
    return false;
}

Cycles
EventQueue::nextEventTime() const
{
    // Skip over cancelled tombstones at the head without popping; scan is
    // cheap because queues stay small (a handful of timers per CPU).
    Cycles best = kNoDeadline;
    for (const Event *ev : heap_) {
        if (!ev->cancelled)
            best = std::min(best, ev->when);
    }
    return best;
}

unsigned
EventQueue::runDue(Cycles now)
{
    unsigned ran = 0;
    while (!heap_.empty()) {
        Event *head = heap_.front();
        if (!head->cancelled && head->when > now)
            break;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        bool due = !head->cancelled;
        if (due && head->kind == Kind::Kick)
            forgetKick(head->id);
        Callback cb = std::move(head->cb);
        // Recycle before running: cb may schedule and immediately reuse it.
        recycle(head);
        if (due) {
            --live_;
            ++ran;
            cb();
        }
    }
    return ran;
}

std::vector<EventQueue::SavedEvent>
EventQueue::liveEvents() const
{
    std::vector<SavedEvent> live;
    live.reserve(live_);
    for (const Event *ev : heap_) {
        if (!ev->cancelled)
            live.push_back({ev->when, ev->seq, ev->id, ev->kind});
    }
    std::sort(live.begin(), live.end(),
              [](const SavedEvent &a, const SavedEvent &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.seq < b.seq;
              });
    return live;
}

void
EventQueue::rehydrate(const std::vector<SavedEvent> &saved)
{
    for (Event *ev : heap_)
        recycle(ev);
    heap_.clear();
    pendingKicks_.clear();
    live_ = 0;

    for (const SavedEvent &s : saved) {
        Event *ev = allocEvent();
        ev->when = s.when;
        ev->seq = s.seq;
        ev->id = s.id;
        ev->kind = s.kind;
        // Kick events are no-ops by definition and need no owner; anything
        // else waits for its component's rebind pass to claim() it.
        ev->cb = ev->kind == Kind::Kick ? Callback([] {}) : nullptr;
        ev->cancelled = false;
        heap_.push_back(ev);
        ++live_;
        if (ev->kind == Kind::Kick)
            pendingKicks_.push_back({ev->when, ev->id});
    }
    // Saved in (when, seq) order, which Later{} accepts as a valid heap,
    // but make the heap property explicit rather than rely on it.
    std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::claim(std::uint64_t id, Callback cb)
{
    for (Event *ev : heap_) {
        if (ev->id == id && !ev->cancelled) {
            if (ev->cb)
                fatal("EventQueue::claim: event %llu already has a callback",
                      static_cast<unsigned long long>(id));
            ev->cb = std::move(cb);
            return;
        }
    }
    fatal("EventQueue::claim: no pending event %llu",
          static_cast<unsigned long long>(id));
}

void
EventQueue::verifyAllClaimed() const
{
    for (const Event *ev : heap_) {
        if (!ev->cancelled && !ev->cb)
            fatal("EventQueue: restored event %llu (t=%llu) was never "
                  "claimed by its owner",
                  static_cast<unsigned long long>(ev->id),
                  static_cast<unsigned long long>(ev->when));
    }
}

} // namespace kvmarm
