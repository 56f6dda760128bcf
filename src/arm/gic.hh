/**
 * @file
 * ARM Generic Interrupt Controller v2 (paper §2, "Interrupt
 * Virtualization"): one distributor routing SGIs/PPIs/SPIs, plus a banked
 * per-CPU interface for ACK (IAR) and EOI. Both are memory mapped; the
 * distributor is shared, the CPU interface is banked by the accessing core.
 */

#ifndef KVMARM_ARM_GIC_HH
#define KVMARM_ARM_GIC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arm/pending_set.hh"
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

/// Distributor register offsets (subset of GICv2).
namespace gicd {
inline constexpr Addr CTLR = 0x000;
inline constexpr Addr TYPER = 0x004;
inline constexpr Addr ISENABLER = 0x100; //!< 0x100-0x17C, set-enable
inline constexpr Addr ICENABLER = 0x180; //!< clear-enable
inline constexpr Addr ISPENDR = 0x200;   //!< set-pending
inline constexpr Addr ICPENDR = 0x280;   //!< clear-pending
inline constexpr Addr IPRIORITYR = 0x400; //!< byte per IRQ
inline constexpr Addr ITARGETSR = 0x800;  //!< byte per IRQ (CPU mask)
inline constexpr Addr ICFGR = 0xC00;
inline constexpr Addr SGIR = 0xF00; //!< software generated interrupt
} // namespace gicd

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
    PendingIrq
    bestPending(CpuId cpu) const
    {
        return enabled() ? live_.select(cpu, banks_[cpu], priority_)
                         : PendingIrq{};
    }
    /** Consume (ack) @p irq for @p cpu; SGIs consume one source at a
     *  time. */
    void acknowledge(CpuId cpu, IrqId irq, CpuId source);
    /// @}

    bool enabled() const { return ctlr_ & 1; }

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
        v.pod(ctlr_, enabled_, pending_, priority_, targets_);
        v.fixed(banks_, "banks");
        v.seq(inflight_);
        v.pod(nextInflightToken_);
        if constexpr (V::kLoading)
            live_.rebuild(banks_, pending_, enabled_, targets_);
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
     * describe the pending delivery and a restored distributor can rebuild
     * the exact callback for the restored event.
     */
    struct Inflight
    {
        std::uint64_t token; //!< distributor-local handle
        std::uint64_t eventId;
        CpuId target;
        bool isSgi;
        IrqId irq; //!< SPI id, or SGI id when isSgi
        CpuId src; //!< SGI source CPU
    };

    void writeSgir(CpuId src, std::uint32_t value);
    void setSgiPending(CpuId target, IrqId sgi, CpuId source);
    CpuId routeSpi(IrqId irq) const;
    void dropInflight(std::uint64_t token);
    void spiDelivered(IrqId irq, std::uint64_t token);
    void sgiDelivered(CpuId target, IrqId sgi, CpuId src,
                      std::uint64_t token);

    /** Re-derive the live bit of @p irq (for an SGI/PPI, in @p cpu's
     *  bank). */
    void syncLive(CpuId cpu, IrqId irq);
    /** Tell the CPU interface that bestPending() may have changed for the
     *  CPUs in @p cpu_mask. */
    void linesChanged(std::uint32_t cpu_mask);

    ArmMachine &machine_;
    unsigned numCpus_;
    std::uint32_t ctlr_ = 0;

    // Shared SPI state.
    std::array<bool, kMaxIrqs> enabled_{};
    std::array<bool, kMaxIrqs> pending_{};
    std::array<std::uint8_t, kMaxIrqs> priority_{};
    std::array<std::uint8_t, kMaxIrqs> targets_{};

    // Banked SGI/PPI state.
    struct Bank
    {
        std::array<std::uint16_t, kNumSgis> sgiSources{}; //!< src bitmask
        std::array<bool, 32> ppiPending{};
        std::array<bool, 32> enabled{};
        std::array<std::uint8_t, 32> priority{};
    };
    std::vector<Bank> banks_;

    /** Pending∧enabled bits and SPI routes derived from the arrays above;
     *  not serialized. */
    PendingSet live_;

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
     *  level is recomputed whenever its inputs change, so this is a load. */
    bool irqLineHigh(CpuId cpu) const { return lineHigh_[cpu]; }

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
    /** Per CPU, the IRQ line level; derived, not serialized. */
    std::vector<std::uint8_t> lineHigh_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_GIC_HH
