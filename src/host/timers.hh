/**
 * @file
 * Host software timers (hrtimer-shaped): the "existing OS functionality to
 * program a software timer" that KVM/ARM leverages to emulate unexpired
 * virtual timers while a VM is descheduled (paper §3.6).
 */

#ifndef KVMARM_HOST_TIMERS_HH
#define KVMARM_HOST_TIMERS_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm {
class MachineBase;
} // namespace kvmarm

namespace kvmarm::host {

/** hrtimer-like facade over the per-CPU event queues. */
class SoftTimers : public Snapshottable
{
  public:
    using Callback = std::function<void()>;

    explicit SoftTimers(MachineBase &machine)
        : Snapshottable(&machine, "soft-timers"), machine_(machine)
    {
    }

    /** Arm a one-shot timer on @p cpu at absolute cycle @p when. */
    std::uint64_t start(CpuId cpu, Cycles when, Callback cb);

    /** Cancel; returns false if already fired. */
    bool cancel(std::uint64_t id);

    std::size_t active() const { return live_.size(); }

    /**
     * Re-attach the callback of a timer that came back from a snapshot.
     * Timer callbacks are owner-supplied closures SoftTimers cannot
     * serialize, so a restore leaves each live timer's event unclaimed and
     * the owning component (e.g. kvm::VTimerEmul) supplies an equivalent
     * callback from its own rebind pass. Fatal if @p id is not a live
     * timer or was already rehydrated; a timer nobody rehydrates fails the
     * owning CPU's verify pass as an unclaimed event.
     */
    void rehydrate(std::uint64_t id, Callback cb);

    /// @name Snapshottable
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        v.pod(nextId_);
        v.map(live_);
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

  private:
    MachineBase &machine_;
    std::uint64_t nextId_ = 1;
    struct Rec
    {
        CpuId cpu;
        std::uint64_t eventId;

        template <class V>
        void
        visit(V &v)
        {
            v.pod(cpu, eventId);
        }
    };
    std::unordered_map<std::uint64_t, Rec> live_;
};

} // namespace kvmarm::host

#endif // KVMARM_HOST_TIMERS_HH
