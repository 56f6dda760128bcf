#include "arm/gic_dist.hh"

#include <bit>

namespace kvmarm::arm {

namespace {

/** Bytes of one bit-per-IRQ register range (ISENABLER and the like). */
constexpr Addr kBitRegBytes = 0x80;

template <class W>
void
setBit(W &word, W bit, bool on)
{
    word = on ? word | bit : word & ~bit;
}

/** Set or clear SPI @p irq's bit in @p words (bit = id - kFirstSpi). */
void
setSpiBit(std::array<std::uint64_t, 2> &words, IrqId irq, bool on)
{
    setBit(words[(irq - kFirstSpi) / 64],
           std::uint64_t{1} << ((irq - kFirstSpi) % 64), on);
}

bool
inRange(Addr offset, Addr base, Addr bytes)
{
    return offset >= base && offset < base + bytes;
}

} // namespace

GicDistState::GicDistState(unsigned banks)
{
    spiPriority_.fill(kDefaultPriority);
    spiTargets_.fill(0x01); // SPIs target CPU0 until reconfigured
    grow(banks);
    rebuild();
}

void
GicDistState::grow(unsigned n)
{
    if (banks_.size() < n) {
        banks_.resize(n);
        livePrivate_.resize(n, 0);
    }
}

void
GicDistState::sync(unsigned bank, IrqId irq)
{
    if (irq >= kFirstSpi) {
        setSpiBit(liveSpis_, irq, spiPending_[irq] && spiEnabled_[irq]);
        return;
    }
    // An SGI is live while any source has it pending, a PPI while it is.
    const Bank &b = banks_[bank];
    bool pending =
        irq < kNumSgis ? b.sgiSources[irq] != 0 : b.ppiPending[irq];
    setBit(livePrivate_[bank], std::uint32_t{1} << irq,
           pending && b.enabled[irq]);
}

void
GicDistState::route(IrqId irq)
{
    for (unsigned c = 0; c < routes_.size(); ++c)
        setSpiBit(routes_[c], irq, (spiTargets_[irq] & (1u << c)) != 0);
}

void
GicDistState::rebuild()
{
    livePrivate_.assign(banks_.size(), 0);
    for (unsigned b = 0; b < banks_.size(); ++b) {
        for (IrqId irq = 0; irq < kFirstSpi; ++irq)
            sync(b, irq);
    }
    for (IrqId irq = kFirstSpi; irq < kMaxIrqs; ++irq) {
        sync(0, irq);
        route(irq);
    }
}

void
GicDistState::setPending(unsigned bank, IrqId irq, CpuId source, bool on)
{
    if (irq < kNumSgis)
        setBit(banks_.at(bank).sgiSources[irq],
               static_cast<std::uint16_t>(1u << source), on);
    else if (irq < kFirstSpi)
        banks_.at(bank).ppiPending[irq] = on;
    else
        spiPending_[irq] = on;
    sync(bank, irq);
}

void
GicDistState::setPpi(unsigned bank, IrqId irq, bool level)
{
    banks_.at(bank).ppiPending[irq] = level;
    sync(bank, irq);
}

unsigned
GicDistState::spiTarget(IrqId irq, unsigned ncpus) const
{
    std::uint32_t mask = spiTargets_[irq] & ((1u << ncpus) - 1);
    return mask ? static_cast<unsigned>(std::countr_zero(mask)) : ncpus;
}

std::optional<SgiTargets>
GicDistState::decodeSgir(std::uint32_t value, CpuId src, unsigned ncpus)
{
    std::uint32_t cpus;
    switch (bits(value, 25, 24)) {
      case 0: // the target list
        cpus = static_cast<std::uint32_t>(bits(value, 23, 16));
        break;
      case 1: // all but self
        cpus = ~(1u << src);
        break;
      case 2: // self
        cpus = 1u << src;
        break;
      default:
        return std::nullopt;
    }
    return SgiTargets{static_cast<IrqId>(bits(value, 3, 0)),
                      static_cast<std::uint8_t>(cpus & ((1u << ncpus) - 1))};
}

std::uint32_t
GicDistState::read(unsigned bank, Addr offset, unsigned ncpus) const
{
    const Bank &b = banks_.at(bank);
    // Packs bit(irq) for the 32 IRQs of the register word at @p offset in
    // the range at @p base.
    auto word = [&](Addr base, auto bit) {
        std::uint32_t v = 0;
        IrqId first = static_cast<IrqId>((offset - base) / 4 * 32);
        for (unsigned i = 0; i < 32 && first + i < kMaxIrqs; ++i)
            v |= bit(first + i) ? (1u << i) : 0;
        return v;
    };
    auto enabled = [&](IrqId irq) {
        return irq < kFirstSpi ? b.enabled[irq] : spiEnabled_[irq];
    };
    auto pending = [&](IrqId irq) {
        if (irq < kNumSgis)
            return b.sgiSources[irq] != 0;
        return irq < kFirstSpi ? b.ppiPending[irq] : spiPending_[irq];
    };
    if (offset == gicd::CTLR)
        return ctlr_;
    if (offset == gicd::TYPER)
        return ((ncpus - 1) << 5) | (kMaxIrqs / 32 - 1);
    // The set and clear registers both read back the current bits.
    if (inRange(offset, gicd::ISENABLER, kBitRegBytes))
        return word(gicd::ISENABLER, enabled);
    if (inRange(offset, gicd::ICENABLER, kBitRegBytes))
        return word(gicd::ICENABLER, enabled);
    if (inRange(offset, gicd::ISPENDR, kBitRegBytes))
        return word(gicd::ISPENDR, pending);
    if (inRange(offset, gicd::ICPENDR, kBitRegBytes))
        return word(gicd::ICPENDR, pending);
    if (inRange(offset, gicd::IPRIORITYR, kMaxIrqs)) {
        IrqId irq = static_cast<IrqId>(offset - gicd::IPRIORITYR);
        return irq < kFirstSpi ? b.priority[irq] : spiPriority_[irq];
    }
    if (inRange(offset, gicd::ITARGETSR, kMaxIrqs)) {
        IrqId irq = static_cast<IrqId>(offset - gicd::ITARGETSR);
        return irq < kFirstSpi ? 1u << bank : spiTargets_[irq];
    }
    return 0;
}

bool
GicDistState::write(unsigned bank, Addr offset, std::uint32_t value)
{
    Bank &b = banks_.at(bank);
    // Applies @p fn to each IRQ whose bit is set in the register word at
    // @p offset in the range at @p base, then re-derives its live bit.
    auto each_bit = [&](Addr base, auto fn) {
        IrqId first = static_cast<IrqId>((offset - base) / 4 * 32);
        for (unsigned i = 0; i < 32 && first + i < kMaxIrqs; ++i) {
            if (value & (1u << i)) {
                fn(first + i);
                sync(bank, first + i);
            }
        }
        return true;
    };
    auto enable = [&](IrqId irq, bool on) {
        (irq < kFirstSpi ? b.enabled[irq] : spiEnabled_[irq]) = on;
    };
    if (offset == gicd::CTLR) {
        ctlr_ = value & 1; // non-secure view: bits 31:1 are RAZ/WI
        return true;
    }
    if (inRange(offset, gicd::ISENABLER, kBitRegBytes))
        return each_bit(gicd::ISENABLER, [&](IrqId i) { enable(i, true); });
    if (inRange(offset, gicd::ICENABLER, kBitRegBytes))
        return each_bit(gicd::ICENABLER, [&](IrqId i) { enable(i, false); });
    if (inRange(offset, gicd::ISPENDR, kBitRegBytes)) {
        // SGI bits are write-ignored: SGIs pend through SGIR (GICv2).
        return each_bit(gicd::ISPENDR, [&](IrqId irq) {
            if (irq >= kNumSgis)
                pend(bank, irq, 0);
        });
    }
    if (inRange(offset, gicd::ICPENDR, kBitRegBytes)) {
        return each_bit(gicd::ICPENDR, [&](IrqId irq) {
            if (irq < kNumSgis)
                b.sgiSources[irq] = 0;
            else if (irq < kFirstSpi)
                b.ppiPending[irq] = false;
            else
                spiPending_[irq] = false;
        });
    }
    if (inRange(offset, gicd::IPRIORITYR, kMaxIrqs)) {
        IrqId irq = static_cast<IrqId>(offset - gicd::IPRIORITYR);
        (irq < kFirstSpi ? b.priority[irq] : spiPriority_[irq]) =
            static_cast<std::uint8_t>(value);
        return true;
    }
    if (inRange(offset, gicd::ITARGETSR, kMaxIrqs)) {
        IrqId irq = static_cast<IrqId>(offset - gicd::ITARGETSR);
        if (irq < kFirstSpi)
            return false; // SGI/PPI targets are read-only
        spiTargets_[irq] = static_cast<std::uint8_t>(value);
        route(irq);
        return true;
    }
    // ICFGR and the rest are ignored (edge/level configuration is not
    // modelled; sources behave as edge-triggered once pending).
    return false;
}

} // namespace kvmarm::arm
