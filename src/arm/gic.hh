/**
 * @file
 * ARM Generic Interrupt Controller v2 (paper §2, "Interrupt
 * Virtualization"): one distributor routing SGIs/PPIs/SPIs, plus a banked
 * per-CPU interface for ACK (IAR) and EOI. Both are memory mapped; the
 * distributor is shared, the CPU interface is banked by the accessing core.
 * The distributor's interrupt state and register decoder are the shared
 * GICv2 model (arm/gic_dist); this file adds the wires, delivery latency
 * and the CPU interface, which drives each CPU's IRQ pin.
 */

#ifndef KVMARM_ARM_GIC_HH
#define KVMARM_ARM_GIC_HH

#include <cstdint>
#include <vector>

#include "arm/gic_dist.hh"
#include "mem/bus.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmMachine;

/// Well-known PPIs on a Cortex-A15 class core.
inline constexpr IrqId kMaintenancePpi = 25; //!< VGIC maintenance interrupt
inline constexpr IrqId kVirtTimerPpi = 27;   //!< virtual generic timer
inline constexpr IrqId kHypTimerPpi = 26;    //!< hyp generic timer
inline constexpr IrqId kPhysTimerPpi = 30;   //!< non-secure phys timer

/// CPU interface register offsets (shared by GICC and GICV).
namespace gicc {
inline constexpr Addr CTLR = 0x00;
inline constexpr Addr PMR = 0x04;  //!< priority mask
inline constexpr Addr BPR = 0x08;  //!< binary point
inline constexpr Addr IAR = 0x0C;  //!< acknowledge (read)
inline constexpr Addr EOIR = 0x10; //!< end of interrupt (write)
inline constexpr Addr RPR = 0x14;  //!< running priority
inline constexpr Addr HPPIR = 0x18; //!< highest priority pending
} // namespace gicc

/**
 * The GIC distributor: global interrupt state and routing. Device models
 * assert wires through raiseSpi/raisePpi; kernels configure it over MMIO.
 */
class GicDistributor : public MmioDevice, public Snapshottable
{
  public:
    GicDistributor(ArmMachine &machine, unsigned num_cpus);

    /// @name Wire-level interface for device models
    /// @{
    /**
     * Assert a shared peripheral interrupt. The pending state is applied
     * on the routed target CPU's event queue at cycle @p when (callers add
     * their interconnect latency), which also wakes an idle target.
     */
    void raiseSpi(IrqId irq, Cycles when);

    /** Assert a private interrupt on @p cpu (called from that CPU's own
     *  execution context, e.g. its timer). */
    void raisePpi(CpuId cpu, IrqId irq);

    /** Deassert a private interrupt (level-triggered sources). */
    void clearPpi(CpuId cpu, IrqId irq);
    /// @}

    /// @name Queries used by the CPU interfaces
    /// @{
    /** Highest-priority enabled pending interrupt routed to @p cpu,
     *  spurious if none or the distributor is disabled. */
    PendingIrq bestPending(CpuId cpu) const { return state_.best(cpu); }
    /** Consume (ack) @p p for @p cpu; SGIs consume one source at a
     *  time. */
    void acknowledge(CpuId cpu, const PendingIrq &p);
    /// @}

    bool enabled() const { return state_.enabled(); }

    /// @name MmioDevice
    /// @{
    std::string name() const override { return "gicd"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /// @}

    /// @name Snapshottable
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        state_.visit(v);
        v.seq(inflight_);
        v.pod(nextInflightToken_);
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /** Re-claims the in-flight delivery events on their target CPUs'
     *  restored queues. */
    void snapshotRebind() override;
    /// @}

  private:
    /**
     * A wire assertion scheduled on a target CPU's event queue but not yet
     * delivered (SPI raise or cross-CPU SGI). Tracked so snapshots can
     * describe the pending delivery; the event's callback carries only the
     * token, so a restored distributor re-claims it as is.
     */
    struct Inflight
    {
        std::uint64_t token; //!< distributor-local handle
        std::uint64_t eventId;
        CpuId target;
        IrqId irq;
        CpuId src; //!< SGI source CPU
    };

    void writeSgir(CpuId src, std::uint32_t value);
    /** Make @p irq pending (from @p source, for an SGI) in @p cpu's view
     *  and refresh the lines it feeds. */
    void pend(CpuId cpu, IrqId irq, CpuId source);
    /** Pend @p irq at @p target at cycle @p when, on @p target's queue. */
    void scheduleDelivery(CpuId target, Cycles when, IrqId irq, CpuId src);
    void deliver(std::uint64_t token);

    /** Tell the CPU interface that bestPending() may have changed for the
     *  CPUs in @p cpu_mask. */
    void linesChanged(std::uint32_t cpu_mask);

    ArmMachine &machine_;
    unsigned numCpus_;
    GicDistState state_; //!< one bank per CPU
    std::vector<Inflight> inflight_;
    std::uint64_t nextInflightToken_ = 1;
};

/**
 * The physical GIC CPU interface (GICC): banked per core; the host kernel
 * ACKs and EOIs hardware interrupts here.
 */
class GicCpuInterface : public MmioDevice, public Snapshottable
{
  public:
    GicCpuInterface(ArmMachine &machine, GicDistributor &dist,
                    unsigned num_cpus);

    /** True if an enabled interrupt should be signalled to @p cpu. The
     *  level is recomputed whenever its inputs change and held on the
     *  CPU's PhysIrq pin, so this is a load. */
    bool irqLineHigh(CpuId cpu) const;

    /** Recompute the IRQ line of every CPU in @p cpu_mask (the
     *  distributor calls this after each state change). */
    void refreshLines(std::uint32_t cpu_mask);

    /// @name MmioDevice
    /// @{
    std::string name() const override { return "gicc"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /// @}

    /// @name Snapshottable
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        v.fixed(banks_, "banks");
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /** Recomputes the lines once the distributor's state is loaded too. */
    void snapshotRebind() override;
    /// @}

  private:
    struct Bank
    {
        bool enabled = false;
        std::uint8_t pmr = 0xFF;
        /** Acked-but-not-EOIed interrupts, innermost last. */
        std::vector<PendingIrq> activeStack;

        template <class V>
        void
        visit(V &v)
        {
            v.pod(enabled, pmr);
            v.seq(activeStack);
        }
    };

    std::uint8_t runningPriority(const Bank &b) const;
    IrqId acknowledgeIrq(CpuId cpu);
    void endOfInterrupt(CpuId cpu, std::uint32_t value);
    void refreshLine(CpuId cpu);

    ArmMachine &machine_;
    GicDistributor &dist_;
    std::vector<Bank> banks_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_GIC_HH
