#include "arm/gic.hh"

#include "arm/machine.hh"
#include "sim/logging.hh"

namespace kvmarm::arm {

namespace {

/** Default priority for unconfigured interrupts. */
constexpr std::uint8_t kDefaultPrio = 0xA0;

} // namespace

GicDistributor::GicDistributor(ArmMachine &machine, unsigned num_cpus)
    : Snapshottable(&machine, "gicd"), machine_(machine), numCpus_(num_cpus),
      banks_(num_cpus)
{
    priority_.fill(kDefaultPrio);
    targets_.fill(0x01); // SPIs target CPU0 until reconfigured
    for (Bank &b : banks_)
        b.priority.fill(kDefaultPrio);
    live_.rebuild(banks_, pending_, enabled_, targets_);
}

void
GicDistributor::syncLive(CpuId cpu, IrqId irq)
{
    if (irq < kFirstSpi)
        live_.syncPrivate(cpu, irq, banks_[cpu]);
    else
        live_.syncSpi(irq, pending_[irq], enabled_[irq]);
}

void
GicDistributor::linesChanged(std::uint32_t cpu_mask)
{
    machine_.gicc().refreshLines(cpu_mask);
}

Cycles
GicDistributor::accessLatency() const
{
    return machine_.cost().gicdLatency;
}

void
GicDistributor::raiseSpi(IrqId irq, Cycles when)
{
    if (irq < kFirstSpi || irq >= kMaxIrqs)
        panic("GicDistributor::raiseSpi: bad irq %u", irq);
    CpuId target = routeSpi(irq);
    std::uint64_t token = nextInflightToken_++;
    std::uint64_t ev = machine_.cpuBase(target).events().schedule(
        when, [this, irq, token] { spiDelivered(irq, token); });
    inflight_.push_back({token, ev, target, false, irq, 0});
}

void
GicDistributor::spiDelivered(IrqId irq, std::uint64_t token)
{
    dropInflight(token);
    pending_[irq] = true;
    syncLive(0, irq);
    linesChanged(targets_[irq]);
}

void
GicDistributor::sgiDelivered(CpuId target, IrqId sgi, CpuId src,
                             std::uint64_t token)
{
    dropInflight(token);
    setSgiPending(target, sgi, src);
}

void
GicDistributor::dropInflight(std::uint64_t token)
{
    for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
        if (it->token == token) {
            inflight_.erase(it);
            return;
        }
    }
    panic("GicDistributor: delivery fired for unknown in-flight token %llu",
          static_cast<unsigned long long>(token));
}

CpuId
GicDistributor::routeSpi(IrqId irq) const
{
    std::uint8_t mask = targets_[irq];
    for (CpuId c = 0; c < numCpus_; ++c) {
        if (mask & (1u << c))
            return c;
    }
    return 0;
}

void
GicDistributor::raisePpi(CpuId cpu, IrqId irq)
{
    if (irq >= kFirstSpi)
        panic("GicDistributor::raisePpi: %u is not a PPI/SGI", irq);
    banks_.at(cpu).ppiPending[irq] = true;
    syncLive(cpu, irq);
    linesChanged(1u << cpu);
}

void
GicDistributor::clearPpi(CpuId cpu, IrqId irq)
{
    banks_.at(cpu).ppiPending[irq] = false;
    syncLive(cpu, irq);
    linesChanged(1u << cpu);
}

void
GicDistributor::setSgiPending(CpuId target, IrqId sgi, CpuId source)
{
    banks_.at(target).sgiSources[sgi] |= (1u << source);
    syncLive(target, sgi);
    linesChanged(1u << target);
}

void
GicDistributor::writeSgir(CpuId src, std::uint32_t value)
{
    unsigned filter = bits(value, 25, 24);
    std::uint8_t target_list = static_cast<std::uint8_t>(bits(value, 23, 16));
    IrqId sgi = static_cast<IrqId>(bits(value, 3, 0));

    std::uint8_t mask = 0;
    switch (filter) {
      case 0:
        mask = target_list;
        break;
      case 1: // all but self
        mask = static_cast<std::uint8_t>(((1u << numCpus_) - 1) & ~(1u << src));
        break;
      case 2: // self
        mask = static_cast<std::uint8_t>(1u << src);
        break;
      default:
        return;
    }

    Cycles now = machine_.cpuBase(src).now();
    for (CpuId t = 0; t < numCpus_; ++t) {
        if (!(mask & (1u << t)))
            continue;
        if (t == src) {
            setSgiPending(t, sgi, src);
        } else {
            std::uint64_t token = nextInflightToken_++;
            std::uint64_t ev = machine_.cpuBase(t).events().schedule(
                now + machine_.cost().ipiWire,
                [this, t, sgi, src, token] {
                    sgiDelivered(t, sgi, src, token);
                });
            inflight_.push_back({token, ev, t, true, sgi, src});
        }
    }
}

void
GicDistributor::acknowledge(CpuId cpu, IrqId irq, CpuId source)
{
    if (irq >= kMaxIrqs)
        return;
    Bank &bank = banks_.at(cpu);
    if (irq < kNumSgis)
        bank.sgiSources[irq] &= static_cast<std::uint16_t>(~(1u << source));
    else if (irq < kFirstSpi)
        bank.ppiPending[irq] = false;
    else
        pending_[irq] = false;
    syncLive(cpu, irq);
    linesChanged(irq < kFirstSpi ? 1u << cpu : targets_[irq]);
}

std::uint64_t
GicDistributor::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    Bank &bank = banks_.at(cpu);
    if (offset == gicd::CTLR)
        return ctlr_;
    if (offset == gicd::TYPER)
        return ((numCpus_ - 1) << 5) | (kMaxIrqs / 32 - 1);
    if (offset >= gicd::ISENABLER && offset < gicd::ISENABLER + 0x80) {
        unsigned word = (offset - gicd::ISENABLER) / 4;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs)
                break;
            bool en = irq < kFirstSpi ? bank.enabled[irq] : enabled_[irq];
            v |= en ? (1u << i) : 0;
        }
        return v;
    }
    if (offset >= gicd::IPRIORITYR && offset < gicd::IPRIORITYR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::IPRIORITYR);
        return irq < kFirstSpi ? bank.priority[irq] : priority_[irq];
    }
    if (offset >= gicd::ITARGETSR && offset < gicd::ITARGETSR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::ITARGETSR);
        return irq < kFirstSpi ? (1u << cpu) : targets_[irq];
    }
    if (offset >= gicd::ISPENDR && offset < gicd::ISPENDR + 0x80) {
        unsigned word = (offset - gicd::ISPENDR) / 4;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs)
                break;
            bool p;
            if (irq < kNumSgis)
                p = bank.sgiSources[irq] != 0;
            else if (irq < kFirstSpi)
                p = bank.ppiPending[irq];
            else
                p = pending_[irq];
            v |= p ? (1u << i) : 0;
        }
        return v;
    }
    return 0;
}

void
GicDistributor::write(CpuId cpu, Addr offset, std::uint64_t value,
                      unsigned len)
{
    (void)len;
    Bank &bank = banks_.at(cpu);
    std::uint32_t v = static_cast<std::uint32_t>(value);
    // Applies @p fn to each IRQ whose bit is set in a 32-IRQ register
    // word, then re-derives its live bit.
    auto each_bit = [&](Addr reg_base, auto fn) {
        unsigned word = (offset - reg_base) / 4;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs || !(v & (1u << i)))
                continue;
            fn(irq);
            syncLive(cpu, irq);
        }
    };
    if (offset == gicd::SGIR) {
        writeSgir(cpu, v); // pends through setSgiPending
        return;
    }
    if (offset == gicd::CTLR) {
        ctlr_ = v;
    } else if (offset >= gicd::ISENABLER && offset < gicd::ISENABLER + 0x80) {
        each_bit(gicd::ISENABLER, [&](IrqId irq) {
            (irq < kFirstSpi ? bank.enabled[irq] : enabled_[irq]) = true;
        });
    } else if (offset >= gicd::ICENABLER && offset < gicd::ICENABLER + 0x80) {
        each_bit(gicd::ICENABLER, [&](IrqId irq) {
            (irq < kFirstSpi ? bank.enabled[irq] : enabled_[irq]) = false;
        });
    } else if (offset >= gicd::ICPENDR && offset < gicd::ICPENDR + 0x80) {
        each_bit(gicd::ICPENDR, [&](IrqId irq) {
            if (irq < kNumSgis)
                bank.sgiSources[irq] = 0;
            else if (irq < kFirstSpi)
                bank.ppiPending[irq] = false;
            else
                pending_[irq] = false;
        });
    } else if (offset >= gicd::IPRIORITYR &&
               offset < gicd::IPRIORITYR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::IPRIORITYR);
        std::uint8_t prio = static_cast<std::uint8_t>(v);
        if (irq < kFirstSpi)
            bank.priority[irq] = prio;
        else
            priority_[irq] = prio;
    } else if (offset >= gicd::ITARGETSR &&
               offset < gicd::ITARGETSR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::ITARGETSR);
        if (irq < kFirstSpi)
            return;
        targets_[irq] = static_cast<std::uint8_t>(v);
        live_.route(irq, targets_[irq]);
    } else {
        // ICFGR and other writes accepted and ignored (edge/level config
        // is not modelled; sources behave as edge-triggered once pending).
        return;
    }
    linesChanged(~0u);
}

void
GicDistributor::snapshotRebind()
{
    // The in-flight deliveries' events were recreated (callback-less) by
    // their target CPUs' queue restores; give each one back the exact
    // callback raiseSpi/writeSgir installed originally.
    for (const Inflight &f : inflight_) {
        auto &q = machine_.cpuBase(f.target).events();
        if (f.isSgi) {
            q.claim(f.eventId,
                    [this, t = f.target, sgi = f.irq, src = f.src,
                     token = f.token] { sgiDelivered(t, sgi, src, token); });
        } else {
            q.claim(f.eventId, [this, irq = f.irq, token = f.token] {
                spiDelivered(irq, token);
            });
        }
    }
}

GicCpuInterface::GicCpuInterface(ArmMachine &machine, GicDistributor &dist,
                                 unsigned num_cpus)
    : Snapshottable(&machine, "gicc"), machine_(machine), dist_(dist),
      banks_(num_cpus), lineHigh_(num_cpus)
{
}

Cycles
GicCpuInterface::accessLatency() const
{
    return machine_.cost().giccLatency;
}

std::uint8_t
GicCpuInterface::runningPriority(const Bank &b) const
{
    return b.activeStack.empty() ? 0xFF : b.activeStack.back().priority;
}

void
GicCpuInterface::refreshLine(CpuId cpu)
{
    const Bank &b = banks_[cpu];
    bool high = false;
    if (b.enabled && dist_.enabled()) {
        PendingIrq best = dist_.bestPending(cpu);
        high = best.irq != kSpuriousIrq && best.priority < b.pmr &&
               best.priority < runningPriority(b);
    }
    lineHigh_[cpu] = high;
}

void
GicCpuInterface::refreshLines(std::uint32_t cpu_mask)
{
    for (CpuId c = 0; c < banks_.size(); ++c) {
        if (cpu_mask & (1u << c))
            refreshLine(c);
    }
}

void
GicCpuInterface::snapshotRebind()
{
    refreshLines(~0u);
}

IrqId
GicCpuInterface::acknowledgeIrq(CpuId cpu)
{
    Bank &b = banks_.at(cpu);
    PendingIrq best = dist_.bestPending(cpu);
    if (best.irq == kSpuriousIrq || best.priority >= b.pmr ||
        best.priority >= runningPriority(b)) {
        return kSpuriousIrq;
    }
    // Push first: acknowledge() refreshes this CPU's line, which must see
    // the new running priority as well as the consumed pending state.
    b.activeStack.push_back(best);
    dist_.acknowledge(cpu, best.irq, best.source);
    // IAR encodes the source CPU of an SGI in bits [12:10].
    return best.irq | (best.irq < kNumSgis ? (best.source << 10) : 0);
}

void
GicCpuInterface::endOfInterrupt(CpuId cpu, std::uint32_t value)
{
    Bank &b = banks_.at(cpu);
    IrqId irq = value & 0x3FF;
    for (auto it = b.activeStack.rbegin(); it != b.activeStack.rend(); ++it) {
        if (it->irq == irq) {
            b.activeStack.erase(std::next(it).base());
            refreshLine(cpu);
            return;
        }
    }
    warn("gicc: EOI for inactive irq %u on cpu%u", irq, cpu);
}

std::uint64_t
GicCpuInterface::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    Bank &b = banks_.at(cpu);
    switch (offset) {
      case gicc::CTLR:
        return b.enabled ? 1 : 0;
      case gicc::PMR:
        return b.pmr;
      case gicc::IAR:
        return acknowledgeIrq(cpu);
      case gicc::RPR:
        return runningPriority(b);
      case gicc::HPPIR:
        return dist_.bestPending(cpu).irq;
      default:
        return 0;
    }
}

void
GicCpuInterface::write(CpuId cpu, Addr offset, std::uint64_t value,
                       unsigned len)
{
    (void)len;
    Bank &b = banks_.at(cpu);
    switch (offset) {
      case gicc::CTLR:
        b.enabled = value & 1;
        refreshLine(cpu);
        break;
      case gicc::PMR:
        b.pmr = static_cast<std::uint8_t>(value);
        refreshLine(cpu);
        break;
      case gicc::EOIR:
        endOfInterrupt(cpu, static_cast<std::uint32_t>(value));
        break;
      default:
        break;
    }
}

} // namespace kvmarm::arm
