/**
 * @file
 * The GICv2 distributor model (paper §2 and §3.5): per-interrupt enable,
 * pending, priority and target state, the register decoder and the
 * pending-interrupt selection. One model serves both distributors: the
 * physical GICD (arm/gic) wraps it with wires, delivery latency and line
 * refreshes; the highvisor's virtual distributor (core/vgic_emul) wraps it
 * with lock costs, VCPU kicks and list-register injection. Neither charges
 * cycles here.
 */

#ifndef KVMARM_ARM_GIC_DIST_HH
#define KVMARM_ARM_GIC_DIST_HH

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace kvmarm::arm {

/// Interrupt ID space (GICv2).
inline constexpr IrqId kNumSgis = 16;  //!< 0-15, inter-processor
inline constexpr IrqId kFirstPpi = 16; //!< 16-31, per-CPU private
inline constexpr IrqId kFirstSpi = 32; //!< 32+, shared peripherals
inline constexpr IrqId kMaxIrqs = 160;
inline constexpr IrqId kSpuriousIrq = 1023;

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

/** Priority of an interrupt nobody has configured. */
inline constexpr std::uint8_t kDefaultPriority = 0xA0;

/** Highest-priority pending interrupt for one CPU. */
struct PendingIrq
{
    IrqId irq = kSpuriousIrq;
    std::uint8_t priority = 0xFF;
    CpuId source = 0; //!< originating core, for SGIs
};

/** A decoded GICD_SGIR write. */
struct SgiTargets
{
    IrqId sgi;
    std::uint8_t cpus; //!< target mask, CPUs below the count only
};

/**
 * One GICv2 distributor's state: CTLR, the SPI arrays, one SGI/PPI bank
 * per CPU (a VCPU, for the virtual distributor) and the pending∧enabled
 * bits derived from them. A bank index is the accessing CPU's; SPI state
 * is shared. Operations only change state: callers refresh their lines
 * and charge their costs.
 */
class GicDistState
{
  public:
    /** Banked SGI/PPI state of one CPU. */
    struct Bank
    {
        Bank() { priority.fill(kDefaultPriority); }
        std::array<std::uint16_t, kNumSgis> sgiSources{}; //!< src bitmask
        std::array<bool, 32> ppiPending{};
        std::array<bool, 32> enabled{};
        std::array<std::uint8_t, 32> priority{};
    };

    explicit GicDistState(unsigned banks);

    bool enabled() const { return ctlr_ & 1; }

    /** Grow to @p n banks (no-op if already that many); new banks start
     *  at reset state. */
    void grow(unsigned n);

    /**
     * Highest-priority enabled pending interrupt for @p bank, spurious if
     * none or the distributor is disabled: the minimum (priority, irq)
     * over its live SGIs and PPIs and the live SPIs routed to it, with an
     * SGI's lowest source CPU.
     */
    PendingIrq
    best(unsigned bank) const
    {
        return enabled() ? select(bank) : PendingIrq{};
    }

    /** Make @p irq pending: an SGI from @p source and a PPI in @p bank,
     *  an SPI for every CPU it targets. */
    void
    pend(unsigned bank, IrqId irq, CpuId source)
    {
        setPending(bank, irq, source, true);
    }

    /** Take @p p out of @p bank's pending state; an SGI loses one
     *  source. */
    void
    consume(unsigned bank, const PendingIrq &p)
    {
        setPending(bank, p.irq, p.source, false);
    }

    /** Set the level of private interrupt @p irq's PPI pending bit. */
    void setPpi(unsigned bank, IrqId irq, bool level);

    /** The CPUs whose selection @p irq feeds: @p bank's own for an
     *  SGI/PPI, the ITARGETSR byte for an SPI. */
    std::uint32_t
    cpusOf(unsigned bank, IrqId irq) const
    {
        return irq < kFirstSpi ? 1u << bank : spiTargets_[irq];
    }

    /** The lowest of the first @p ncpus CPUs SPI @p irq targets, or
     *  @p ncpus if it targets none of them. */
    unsigned spiTarget(IrqId irq, unsigned ncpus) const;

    /** Decode a GICD_SGIR write from CPU @p src of @p ncpus; nothing for
     *  the reserved target filter. */
    static std::optional<SgiTargets> decodeSgir(std::uint32_t value,
                                                CpuId src, unsigned ncpus);

    /** A register read by @p bank's CPU on a distributor of @p ncpus
     *  CPUs; unmodelled registers read as zero. */
    std::uint32_t read(unsigned bank, Addr offset, unsigned ncpus) const;

    /**
     * A register write by @p bank's CPU (SGIR aside, which the caller
     * decodes and routes). Returns whether it reached interrupt state, so
     * a selection may have changed; writes to read-only, ignored and
     * unmodelled registers return false.
     */
    bool write(unsigned bank, Addr offset, std::uint32_t value);

    template <class V>
    void
    visit(V &v)
    {
        v.pod(ctlr_, spiEnabled_, spiPending_, spiPriority_, spiTargets_);
        v.seq(banks_);
        if constexpr (V::kLoading)
            rebuild();
    }

  private:
    using SpiWords = std::array<std::uint64_t, 2>;

    /** best() once the distributor is enabled; inline, as the CPU
     *  interfaces call it on every line refresh. */
    PendingIrq
    select(unsigned bank) const
    {
        PendingIrq best;
        const Bank &b = banks_[bank];
        // Bits are visited in ascending id order, so a strict compare keeps
        // the lowest id among equal priorities.
        auto consider = [&best](IrqId irq, std::uint8_t prio) {
            if (best.irq == kSpuriousIrq || prio < best.priority) {
                best.irq = irq;
                best.priority = prio;
            }
        };
        for (std::uint32_t w = livePrivate_[bank]; w; w &= w - 1) {
            IrqId irq = static_cast<IrqId>(std::countr_zero(w));
            consider(irq, b.priority[irq]);
        }
        for (unsigned i = 0; i < liveSpis_.size() && bank < routes_.size();
             ++i) {
            std::uint64_t w = liveSpis_[i] & routes_[bank][i];
            for (; w; w &= w - 1) {
                IrqId irq = kFirstSpi + 64 * i +
                            static_cast<IrqId>(std::countr_zero(w));
                consider(irq, spiPriority_[irq]);
            }
        }
        if (best.irq < kNumSgis)
            best.source =
                static_cast<CpuId>(std::countr_zero(b.sgiSources[best.irq]));
        return best;
    }

    void setPending(unsigned bank, IrqId irq, CpuId source, bool on);
    /** Re-derive the live bit of @p irq (an SGI/PPI in @p bank). */
    void sync(unsigned bank, IrqId irq);
    /** Re-derive the per-CPU route bits of SPI @p irq. */
    void route(IrqId irq);
    /** Re-derive every live and route bit. */
    void rebuild();

    std::uint32_t ctlr_ = 0; //!< bit 0 only: the non-secure enable
    std::array<bool, kMaxIrqs> spiEnabled_{};
    std::array<bool, kMaxIrqs> spiPending_{};
    std::array<std::uint8_t, kMaxIrqs> spiPriority_{};
    std::array<std::uint8_t, kMaxIrqs> spiTargets_{};
    std::vector<Bank> banks_;

    // Pending∧enabled bits derived from the state above; not serialized.
    std::vector<std::uint32_t> livePrivate_; //!< per bank, bit = SGI/PPI id
    SpiWords liveSpis_{};                    //!< bit = id - kFirstSpi
    /** Per CPU, the SPIs whose ITARGETSR byte names it (8 CPUs max). */
    std::array<SpiWords, 8> routes_{};
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_GIC_DIST_HH
