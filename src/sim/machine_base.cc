#include "sim/machine_base.hh"
#include <algorithm>
#include <cstdio>

#include "sim/cpu_base.hh"
#include "sim/logging.hh"

namespace kvmarm {

namespace {
/** Factory hooks registered by the check layer (null until its static
 *  initializer runs; permanently null when the binary links no check
 *  code). */
// domlint: allow(ownership-static) — written once by the check layer's static initializer before main(); read-only while any machine is live
MachineBase::CheckEngineCreate gCheckCreate = nullptr;
// domlint: allow(ownership-static) — written once by the check layer's static initializer before main(); read-only while any machine is live
MachineBase::CheckEngineDestroy gCheckDestroy = nullptr;
// domlint: allow(ownership-static) — written once by the check layer's static initializer before main(); read-only while any machine is live
MachineBase::CheckEnginePublish gCheckPublish = nullptr;
} // namespace

void
MachineBase::registerCheckEngineFactory(CheckEngineCreate create,
                                        CheckEngineDestroy destroy,
                                        CheckEnginePublish publish)
{
    gCheckCreate = create;
    gCheckDestroy = destroy;
    gCheckPublish = publish;
}

void
MachineBase::publishCheckEpoch()
{
    if (checkEngine_ && gCheckPublish)
        gCheckPublish(checkEngine_.get());
}

void
MachineBase::CheckEngineDeleter::operator()(check::InvariantEngine *eng) const
{
    if (eng && gCheckDestroy)
        gCheckDestroy(eng);
}

MachineBase::MachineBase()
    : checkEngine_(gCheckCreate ? gCheckCreate() : nullptr)
{
}

MachineBase::~MachineBase() = default;

std::uint64_t
MachineBase::addSnapshotBlocker(std::string reason)
{
    std::uint64_t token = nextBlockerToken_++;
    snapshotBlockers_.emplace_back(token, std::move(reason));
    return token;
}

void
MachineBase::removeSnapshotBlocker(std::uint64_t token)
{
    auto it = std::find_if(snapshotBlockers_.begin(), snapshotBlockers_.end(),
                           [&](const auto &b) { return b.first == token; });
    if (it == snapshotBlockers_.end())
        fatal("MachineBase::removeSnapshotBlocker: unknown token %llu",
              static_cast<unsigned long long>(token));
    snapshotBlockers_.erase(it);
}

std::shared_ptr<const MachineSnapshot>
MachineBase::takeSnapshot()
{
    if (running_)
        fatal("MachineBase::takeSnapshot: machine is running; snapshots "
              "require a quiesced machine");
    if (!snapshotBlockers_.empty()) {
        std::string reasons;
        for (const auto &b : snapshotBlockers_) {
            if (!reasons.empty())
                reasons += "; ";
            reasons += b.second;
        }
        fatal("MachineBase::takeSnapshot: machine holds externally visible "
              "state a snapshot would silently drop: %s", reasons.c_str());
    }
    auto snap = std::make_shared<MachineSnapshot>();
    snap->records.reserve(snapshottables_.size());
    for (Snapshottable *s : snapshottables_) {
        SnapshotWriter w;
        s->snapshotSave(w);
        snap->records.push_back(w.finish(s->snapshotKey()));
    }
    return snap;
}

void
MachineBase::restoreSnapshot(const MachineSnapshot &snap)
{
    if (running_)
        fatal("MachineBase::restoreSnapshot: machine is running");
    if (snap.records.size() != snapshottables_.size())
        fatal("MachineBase::restoreSnapshot: snapshot has %zu records but "
              "this machine registered %zu components — machine shapes "
              "differ",
              snap.records.size(), snapshottables_.size());
    for (std::size_t i = 0; i < snapshottables_.size(); ++i) {
        Snapshottable *s = snapshottables_[i];
        const SnapshotRecord &rec = snap.records[i];
        if (rec.key != s->snapshotKey())
            fatal("MachineBase::restoreSnapshot: record %zu is '%s' but "
                  "component %zu is '%s' — registration orders differ",
                  i, rec.key.c_str(), i, s->snapshotKey().c_str());
        SnapshotReader r(rec);
        s->snapshotLoad(r);
        if (!r.done())
            fatal("MachineBase::restoreSnapshot: component '%s' left %zu "
                  "bytes of its record unconsumed",
                  rec.key.c_str(), r.remaining());
    }
    for (Snapshottable *s : snapshottables_)
        s->snapshotRebind();
    for (Snapshottable *s : snapshottables_)
        s->snapshotVerify();
    stopRequested_ = false;
    // A restore rewrites rule shadow state wholesale; it is a quiesce
    // boundary, so republish the violation counter for live aggregation.
    KVMARM_CHECK_PUBLISH(*this);
}

bool
MachineBase::finished() const
{
    for (const CpuBase *c : cpusBase_) {
        if (c->hasEntry() && !c->fiberFinished())
            return false;
    }
    return true;
}

Cycles
MachineBase::nextActivity() const
{
    Cycles best = kNoDeadline;
    for (CpuBase *c : cpusBase_) {
        if (c->hasEntry() && !c->fiberFinished())
            best = std::min(best, c->effectiveClock());
    }
    return best;
}

void
MachineBase::resume(CpuBase *c)
{
    running_ = c;
    try {
        c->resumeFiber();
    } catch (...) {
        running_ = nullptr;
        throw;
    }
    running_ = nullptr;
}

void
MachineBase::run(Cycles haltAt)
{
    stopRequested_ = false;
    while (!stopRequested_) {
        CpuBase *best = nullptr;
        Cycles best_clock = kNoDeadline;
        Cycles second_clock = kNoDeadline;
        bool any_unfinished = false;

        for (CpuBase *c : cpusBase_) {
            if (!c->hasEntry() || c->fiberFinished())
                continue;
            any_unfinished = true;
            Cycles eff = c->effectiveClock();
            if (eff < best_clock) {
                second_clock = best_clock;
                best_clock = eff;
                best = c;
            } else if (eff < second_clock) {
                second_clock = eff;
            }
        }

        if (!any_unfinished)
            break;
        // Every unfinished CPU is at or past a bounded horizon: quiesce and
        // hand control back to the caller (rendezvous boundary, not
        // deadlock). An unbounded run must keep the deadlock check below.
        if (haltAt != kNoDeadline && best_clock >= haltAt)
            break;
        if (!best || best_clock == kNoDeadline) {
            for (CpuBase *c : cpusBase_) {
                std::fprintf(stderr,
                             "  cpu%u: now=%llu waiting=%d finished=%d "
                             "events=%zu\n",
                             c->id(), static_cast<unsigned long long>(c->now()),
                             c->waiting(), c->fiberFinished(),
                             c->events().size());
            }
            panic("MachineBase::run: deadlock — every CPU is blocked with "
                  "no pending events");
        }

        // With no other unfinished CPU there is no laggard to yield to:
        // the horizon is the threshold (kNoDeadline when unbounded).
        Cycles threshold = second_clock == kNoDeadline
                               ? kNoDeadline
                               : second_clock + quantum_;
        best->setYieldThreshold(std::min(threshold, haltAt));
        resume(best);
    }
    // Every exit from run() — completion, bounded horizon, requestStop —
    // leaves the machine quiesced on its own execution thread: publish
    // the invariant-violation counter so the epoch aggregation
    // (check::beginEpoch()/aggregateEpoch()) can read it live while
    // other machines keep running.
    KVMARM_CHECK_PUBLISH(*this);
}

void
MachineBase::noteEventScheduled(CpuBase &target, Cycles when)
{
    if (running_ && running_ != &target)
        running_->lowerYieldThreshold(when + quantum_);
}

} // namespace kvmarm
