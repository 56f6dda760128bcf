/**
 * @file
 * A per-CPU discrete event queue keyed by cycle time.
 *
 * Each simulated CPU owns one queue; events scheduled by other CPUs (IPI
 * deliveries, device completions) land here and are serviced when the owning
 * CPU's clock passes the event time, or immediately when the CPU idles and
 * fast-forwards its clock.
 *
 * Event objects are pooled per queue: runDue() and snapshot restores recycle
 * them onto a free list that schedule() pops before touching the heap
 * allocator, so steady-state simulation performs no event allocations.
 */

#ifndef KVMARM_SIM_EVENT_QUEUE_HH
#define KVMARM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.hh"

namespace kvmarm {

/** FIFO-stable priority queue of cycle-stamped callbacks. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /**
     * What an event's callback does, for snapshot rehydration. Callbacks
     * are closures and cannot be serialized; a restored Generic event
     * starts with a null callback that its owning component must claim()
     * during its rebind pass. Kick events (cross-CPU wakes) carry no
     * callback at all and need no claim.
     */
    enum class Kind : std::uint8_t
    {
        Generic = 0,
        Kick = 1,
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /**
     * Schedule @p cb to run at absolute cycle @p when (a null @p cb runs
     * nothing). Returns an id.
     *
     * Kick events (cross-CPU wakes, scheduled with a null @p cb) are
     * coalesced:
     * if a live Kick is already pending at @p when, no second Event is
     * created and the existing event's id is returned. onSchedule still
     * fires for the coalesced call — the machine scheduler's wake
     * bookkeeping must see every kick request, or yield thresholds (and
     * therefore interleavings) would depend on coalescing.
     */
    std::uint64_t schedule(Cycles when, Callback cb, Kind kind = Kind::Generic);

    /** Invoked on every schedule(); the owning CPU uses this to tell the
     *  machine scheduler about cross-CPU wake events. */
    std::function<void(Cycles)> onSchedule;

    /** Cancel a previously scheduled event. Returns false if already run. */
    bool cancel(std::uint64_t id);

    /** Cycle of the earliest pending event, or kNoDeadline if empty. */
    Cycles nextEventTime() const;

    /** Run every event with time <= @p now. Returns number run. */
    unsigned runDue(Cycles now);

    /**
     * True if runDue(@p now) has anything to pop: the heap head is a
     * cancelled tombstone or comes due at or before @p now. When false,
     * runDue would return 0 without touching the queue, so callers on the
     * hot path test this inline first.
     */
    bool
    mayHaveDue(Cycles now) const
    {
        return !heap_.empty() &&
               (heap_.front()->cancelled || heap_.front()->when <= now);
    }

    /** True if no events are pending. */
    bool empty() const { return live_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return live_; }

    /** Event structs allocated from the heap (pool misses) so far. */
    std::uint64_t heapAllocs() const { return heapAllocs_; }

    /** Duplicate same-cycle Kick schedules elided so far. */
    std::uint64_t kicksCoalesced() const { return kicksCoalesced_; }

    /// @name Snapshot support (CpuBase's visit() drives this)
    /// @{

    /**
     * Live events (time, order, id, kind) plus the id/seq counters, so
     * restored events keep their exact FIFO tie-breaks. Reading drops
     * everything pending and recreates the saved events, all with null
     * callbacks: Kick events are runnable as they are, Generic events
     * await claim(). onSchedule is not fired (the machine is quiesced).
     */
    template <class V>
    void
    visit(V &v)
    {
        std::vector<SavedEvent> live;
        if constexpr (!V::kLoading)
            live = liveEvents();
        v.seq(live);
        v.pod(nextSeq_, nextId_);
        if constexpr (V::kLoading)
            rehydrate(live);
    }

    /** Re-attach the callback of restored event @p id. fatal() if the id
     *  is unknown, already claimed or a kick. */
    void claim(std::uint64_t id, Callback cb);

    /** fatal() if any restored Generic event is still unclaimed (kicks
     *  need no claim). */
    void verifyAllClaimed() const;
    /// @}

  private:
    struct Event
    {
        Cycles when;
        std::uint64_t seq; //!< schedule order, for FIFO stability
        std::uint64_t id;
        Kind kind;
        Callback cb;
        bool cancelled = false;
    };

    struct Later
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    struct PendingKick
    {
        Cycles when;
        std::uint64_t id;
    };

    /** A pending event as a snapshot records it. */
    struct SavedEvent
    {
        Cycles when;
        std::uint64_t seq;
        std::uint64_t id;
        Kind kind;

        template <class V>
        void
        visit(V &v)
        {
            v.pod(when, seq, id, kind);
        }
    };

    /** Live events in (when, seq) order. */
    std::vector<SavedEvent> liveEvents() const;
    void rehydrate(const std::vector<SavedEvent> &saved);

    Event *allocEvent();
    void recycle(Event *ev);
    void forgetKick(std::uint64_t id);

    std::vector<Event *> heap_;
    std::vector<Event *> pool_; //!< recycled Event structs, ready for reuse
    std::vector<PendingKick> pendingKicks_; //!< live Kicks, for coalescing
    std::uint64_t nextSeq_ = 0;
    std::uint64_t nextId_ = 1;
    std::size_t live_ = 0;
    std::uint64_t heapAllocs_ = 0;
    std::uint64_t kicksCoalesced_ = 0;
};

} // namespace kvmarm

#endif // KVMARM_SIM_EVENT_QUEUE_HH
