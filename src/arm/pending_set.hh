/**
 * @file
 * The GICv2 interrupt ID space and the pending-interrupt selector shared by
 * the physical distributor (arm/gic) and the virtual distributor emulation
 * (core/vgic_emul): which enabled interrupt a CPU interface should signal.
 */

#ifndef KVMARM_ARM_PENDING_SET_HH
#define KVMARM_ARM_PENDING_SET_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace kvmarm::arm {

/// Interrupt ID space (GICv2).
inline constexpr IrqId kNumSgis = 16;           //!< 0-15, inter-processor
inline constexpr IrqId kFirstPpi = 16;          //!< 16-31, per-CPU private
inline constexpr IrqId kFirstSpi = 32;          //!< 32+, shared peripherals
inline constexpr IrqId kMaxIrqs = 160;
inline constexpr IrqId kSpuriousIrq = 1023;

/** Highest-priority pending interrupt for one CPU. */
struct PendingIrq
{
    IrqId irq = kSpuriousIrq;
    std::uint8_t priority = 0xFF;
    CpuId source = 0; //!< originating core, for SGIs
};

/**
 * The pending∧enabled bits of one distributor, derived from its
 * per-interrupt arrays: one 32-bit word per bank (CPU) for SGIs and PPIs,
 * two 64-bit words for SPIs 32-159, and per-CPU SPI route masks built
 * from ITARGETSR. The owner updates a bit whenever it changes an input of
 * that bit, and rebuilds the whole set after a snapshot load; the bits
 * are never serialized.
 *
 * select() returns exactly what a scan of all 160 IDs in ascending order
 * returns: the minimum (priority, irq) over the live SGIs and PPIs of the
 * bank and the live SPIs routed to it, with an SGI's lowest source CPU.
 * It walks only the set bits.
 */
class PendingSet
{
  public:
    /** Grow to @p banks banks; new banks start with no live bits. */
    void resize(std::size_t banks) { private_.resize(banks, 0); }

    /** Re-derive every bit and route from the owner's state: one bank
     *  per entry of @p banks, and the SPI arrays indexed by IRQ id. */
    template <class Bank>
    void
    rebuild(const std::vector<Bank> &banks,
            const std::array<bool, kMaxIrqs> &spiPending,
            const std::array<bool, kMaxIrqs> &spiEnabled,
            const std::array<std::uint8_t, kMaxIrqs> &spiTargets)
    {
        private_.assign(banks.size(), 0);
        for (std::size_t b = 0; b < banks.size(); ++b) {
            for (IrqId irq = 0; irq < kFirstSpi; ++irq)
                syncPrivate(b, irq, banks[b]);
        }
        for (IrqId irq = kFirstSpi; irq < kMaxIrqs; ++irq) {
            syncSpi(irq, spiPending[irq], spiEnabled[irq]);
            route(irq, spiTargets[irq]);
        }
    }

    /**
     * Re-derive the bit of SGI/PPI @p irq in @p bank from the owner's bank
     * state @p b (fields sgiSources, ppiPending, enabled): an SGI is live
     * while any source has it pending, a PPI while it is pending.
     */
    template <class Bank>
    void
    syncPrivate(std::size_t bank, IrqId irq, const Bank &b)
    {
        bool pending =
            irq < kNumSgis ? b.sgiSources[irq] != 0 : b.ppiPending[irq];
        setBit(private_[bank], std::uint32_t{1} << irq,
               pending && b.enabled[irq]);
    }

    /** Set or clear the live bit of SPI @p irq. */
    void
    syncSpi(IrqId irq, bool pending, bool enabled)
    {
        setBit(spiWord(spis_, irq), spiBit(irq), pending && enabled);
    }

    /** SPI @p irq now targets the CPUs in @p targets (ITARGETSR byte). */
    void
    route(IrqId irq, std::uint8_t targets)
    {
        for (unsigned c = 0; c < routes_.size(); ++c)
            setBit(spiWord(routes_[c], irq), spiBit(irq), targets & (1u << c));
    }

    /**
     * Best live interrupt for @p bank, spurious if none. @p b is the
     * owner's bank (fields sgiSources, priority), @p spiPriority its SPI
     * priorities indexed by IRQ id.
     */
    template <class Bank>
    PendingIrq
    select(std::size_t bank, const Bank &b,
           const std::array<std::uint8_t, kMaxIrqs> &spiPriority) const
    {
        PendingIrq best;
        // Bits are visited in ascending id order, so a strict compare
        // keeps the lowest id among equal priorities.
        auto consider = [&best](IrqId irq, std::uint8_t prio) {
            if (best.irq == kSpuriousIrq || prio < best.priority) {
                best.irq = irq;
                best.priority = prio;
            }
        };
        for (std::uint32_t w = private_[bank]; w; w &= w - 1) {
            IrqId irq = static_cast<IrqId>(std::countr_zero(w));
            consider(irq, b.priority[irq]);
        }
        for (unsigned i = 0; i < spis_.size() && bank < routes_.size(); ++i) {
            for (std::uint64_t w = spis_[i] & routes_[bank][i]; w; w &= w - 1) {
                IrqId irq = kFirstSpi + 64 * i +
                            static_cast<IrqId>(std::countr_zero(w));
                consider(irq, spiPriority[irq]);
            }
        }
        if (best.irq < kNumSgis)
            best.source =
                static_cast<CpuId>(std::countr_zero(b.sgiSources[best.irq]));
        return best;
    }

  private:
    using SpiWords = std::array<std::uint64_t, 2>;

    template <class W>
    static void setBit(W &word, W bit, bool on)
    {
        word = on ? word | bit : word & ~bit;
    }

    static std::uint64_t &spiWord(SpiWords &words, IrqId irq)
    {
        return words[(irq - kFirstSpi) / 64];
    }
    static std::uint64_t spiBit(IrqId irq)
    {
        return std::uint64_t{1} << ((irq - kFirstSpi) % 64);
    }

    std::vector<std::uint32_t> private_; //!< per bank, bit = SGI/PPI id
    SpiWords spis_{};                    //!< bit = id - kFirstSpi
    /** Per CPU, the SPIs whose ITARGETSR byte names it (8 CPUs max). */
    std::array<SpiWords, 8> routes_{};
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_PENDING_SET_HH
