/**
 * @file
 * Architecture-neutral simulated CPU core: a cycle clock, an event queue,
 * and run control (fiber entry, idle waiting, cross-CPU kicks).
 */

#ifndef KVMARM_SIM_CPU_BASE_HH
#define KVMARM_SIM_CPU_BASE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace kvmarm {

class MachineBase;

/**
 * Base class for ArmCpu and X86Cpu. Owns the per-CPU clock and event queue
 * and cooperates with MachineBase's min-clock scheduler.
 *
 * Every CPU is Snapshottable: the base class visits the clock, idle
 * accounting, event queue, and stats; architectures define their own
 * visit() (calling the base first) to add their register state. CPUs
 * self-register on the machine at construction, so derived machines get
 * snapshot coverage of the sim-level CPU state for free.
 */
class CpuBase : public Snapshottable
{
  public:
    CpuBase(CpuId id, MachineBase &machine);

    CpuBase(const CpuBase &) = delete;
    CpuBase &operator=(const CpuBase &) = delete;

    CpuId id() const { return id_; }
    MachineBase &machine() { return machine_; }

    /** Current cycle clock of this CPU. */
    Cycles now() const { return now_; }

    /**
     * Advance the clock by @p c cycles, servicing any events that come due
     * and yielding to the machine scheduler if another CPU has fallen
     * behind. This is the single place simulated time advances while a CPU
     * is executing.
     *
     * The common charge is an add and a compare: it returns at once when
     * no yield is due, no event is due and no interrupt is deliverable.
     * Each skip is exact: runDue() would run nothing, serviceInterrupts()
     * would deliver nothing (and has no other effect), and the yield
     * condition is false. Otherwise sync() does the full work.
     */
    void
    addCycles(Cycles c)
    {
        now_ += c;
        if (now_ < yieldThreshold_ && !events_.mayHaveDue(now_) &&
            !irqDeliverable())
            return;
        sync();
    }

    /** Force the clock forward to @p t (idle fast-forward; never goes
     *  backwards). */
    void advanceTo(Cycles t);

    EventQueue &events() { return events_; }

    /** Per-CPU statistics. */
    StatGroup &stats() { return stats_; }

    /** Cycles this CPU spent idle (blocked with the clock fast-forwarded);
     *  feeds the utilization-based energy model. */
    Cycles idleCycles() const { return idleCycles_; }

    /**
     * Block until @p pred becomes true. The machine scheduler fast-forwards
     * this CPU's clock to its next event while blocked. Used for WFI/HLT
     * and for host-thread blocking.
     */
    void waitUntil(const std::function<bool()> &pred);

    /**
     * Wake a CPU that may be blocked in waitUntil by scheduling a
     * callback-free Kick event on it at max(target.now, when). Models the delivery latency of
     * whatever signal (IPI, device interrupt) does the waking.
     */
    void kickAt(Cycles when);

    /** True if an enabled interrupt is pending for the current context.
     *  Architectures implement this against their interrupt controller. */
    virtual bool interruptPending() const = 0;

    /**
     * Deliver any pending interrupts for the current execution context.
     * Called after time advances, and only while irqDeliverable() holds.
     * Architectures route to guest vectors, host vectors, or hypervisor
     * traps.
     */
    virtual void serviceInterrupts() = 0;

    /// @name Interrupt pins
    ///
    /// The interrupt lines that reach this CPU, one bit each, driven by
    /// the interrupt controllers at the points where a line level can
    /// change (each architecture names its pins). The gate is closed in
    /// contexts where nothing can be delivered whatever the lines say
    /// (ARM Hyp mode). Pins are derived state: the controllers and the
    /// architecture recompute them after a snapshot load, so they are
    /// never serialized.
    /// @{
    void
    setIrqPin(unsigned pin, bool high)
    {
        const std::uint32_t m = std::uint32_t{1} << pin;
        irqPins_ = high ? irqPins_ | m : irqPins_ & ~m;
    }
    bool irqPin(unsigned pin) const { return (irqPins_ >> pin) & 1; }
    /** True when some pin is high and the gate is open: only then can
     *  serviceInterrupts() deliver anything. */
    bool irqDeliverable() const { return (irqPins_ & irqGate_) != 0; }
    /// @}

    /// @name Scheduler interface (MachineBase only)
    /// @{
    void setEntry(std::function<void()> fn);
    bool hasEntry() const { return entry_ != nullptr; }
    bool fiberFinished() const;
    bool waiting() const { return waiting_; }
    void resumeFiber();
    void setYieldThreshold(Cycles t) { yieldThreshold_ = t; }
    /** Pull the yield point earlier (a cross-CPU wake appeared). */
    void
    lowerYieldThreshold(Cycles t)
    {
        if (t < yieldThreshold_)
            yieldThreshold_ = t;
    }
    /** Clock the scheduler should use to order this CPU. */
    Cycles effectiveClock() const;
    /// @}

    /// @name Snapshottable
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        if constexpr (!V::kLoading)
            checkQuiesced();
        v.pod(now_, idleCycles_, waiting_);
        events_.visit(v);
        v.pod(stats_);
        if constexpr (V::kLoading) {
            yieldThreshold_ = kNoDeadline;
            // The restored CPU runs whatever entry the clone installs next;
            // any finished boot fiber from this machine's own past is
            // discarded.
            fiber_.reset();
        }
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /** Restored events must all have been claimed by their owners. */
    void snapshotVerify() override { events_.verifyAllClaimed(); }
    /// @}

  protected:
    /** Run events due at the current clock, then deliver interrupts. */
    void drain();

    /**
     * An access of @p len (at most 8) bytes at @p addr as one call of
     * @p page(addr, value, len) per page its bytes touch, the low page
     * first: where the CPU translates, the pages need not be adjacent.
     * @return the bytes read, assembled little-endian.
     */
    template <class PageAccess>
    static std::uint64_t splitAtPages(Addr addr, std::uint64_t value,
                                      unsigned len, PageAccess &&page)
    {
        const auto room =
            static_cast<unsigned>(kPageSize - (addr & (kPageSize - 1)));
        if (len <= room)
            return page(addr, value, len);
        const std::uint64_t low =
            page(addr, value, room) & ((std::uint64_t{1} << (8 * room)) - 1);
        return low | page(addr + room, value >> (8 * room), len - room)
                         << (8 * room);
    }

    /** Open or close the interrupt gate (see irqDeliverable()). */
    void setIrqGate(bool open) { irqGate_ = open ? ~std::uint32_t{0} : 0; }

    /**
     * True when a run of charges summing to @p c, with nothing between
     * them but pin changes, would each take addCycles()' early return:
     * the sum reaches no event and no yield threshold, and the gate is
     * closed, so no pin raised on the way is delivered. The run may then
     * be charged as one addCycles(@p c).
     */
    bool
    chargeIsQuiet(Cycles c) const
    {
        const Cycles t = now_ + c;
        return irqGate_ == 0 && t < yieldThreshold_ &&
               !events_.mayHaveDue(t);
    }

    CpuId id_;
    MachineBase &machine_;
    Cycles now_ = 0;
    EventQueue events_;
    StatGroup stats_;

  private:
    /** addCycles()'s slow path: drain, then yield if the threshold is
     *  reached. */
    void sync();

    /** Fatal unless the fiber is finished or never started: a suspended
     *  fiber's stack cannot be serialized. */
    void checkQuiesced() const;

    std::function<void()> entry_;
    std::unique_ptr<Fiber> fiber_;
    bool waiting_ = false;
    Cycles yieldThreshold_ = kNoDeadline;
    std::uint32_t irqPins_ = 0;
    std::uint32_t irqGate_ = ~std::uint32_t{0};
    Cycles idleCycles_ = 0;
};

} // namespace kvmarm

#endif // KVMARM_SIM_CPU_BASE_HH
