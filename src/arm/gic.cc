#include "arm/gic.hh"

#include <algorithm>

#include "arm/machine.hh"
#include "sim/logging.hh"

namespace kvmarm::arm {

GicDistributor::GicDistributor(ArmMachine &machine, unsigned num_cpus)
    : Snapshottable(&machine, "gicd"), machine_(machine), numCpus_(num_cpus),
      state_(num_cpus)
{
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
    // An SPI that targets no CPU still becomes pending; CPU0's queue
    // carries its delivery.
    CpuId target = state_.spiTarget(irq, numCpus_);
    scheduleDelivery(target == numCpus_ ? 0 : target, when, irq, 0);
}

void
GicDistributor::scheduleDelivery(CpuId target, Cycles when, IrqId irq,
                                 CpuId src)
{
    std::uint64_t token = nextInflightToken_++;
    std::uint64_t ev = machine_.cpuBase(target).events().schedule(
        when, [this, token] { deliver(token); });
    inflight_.push_back({token, ev, target, irq, src});
}

void
GicDistributor::deliver(std::uint64_t token)
{
    auto it = std::find_if(inflight_.begin(), inflight_.end(),
                           [token](const Inflight &f) {
                               return f.token == token;
                           });
    if (it == inflight_.end())
        panic("GicDistributor: delivery fired for unknown in-flight token "
              "%llu", static_cast<unsigned long long>(token));
    Inflight f = *it;
    inflight_.erase(it);
    pend(f.target, f.irq, f.src);
}

void
GicDistributor::pend(CpuId cpu, IrqId irq, CpuId source)
{
    state_.pend(cpu, irq, source);
    linesChanged(state_.cpusOf(cpu, irq));
}

void
GicDistributor::raisePpi(CpuId cpu, IrqId irq)
{
    if (irq >= kFirstSpi)
        panic("GicDistributor::raisePpi: %u is not a PPI/SGI", irq);
    state_.setPpi(cpu, irq, true);
    linesChanged(1u << cpu);
}

void
GicDistributor::clearPpi(CpuId cpu, IrqId irq)
{
    state_.setPpi(cpu, irq, false);
    linesChanged(1u << cpu);
}

void
GicDistributor::writeSgir(CpuId src, std::uint32_t value)
{
    auto sgi = GicDistState::decodeSgir(value, src, numCpus_);
    if (!sgi)
        return;
    Cycles now = machine_.cpuBase(src).now();
    for (CpuId t = 0; t < numCpus_; ++t) {
        if (!(sgi->cpus & (1u << t)))
            continue;
        if (t == src)
            pend(t, sgi->sgi, src);
        else
            scheduleDelivery(t, now + machine_.cost().ipiWire, sgi->sgi, src);
    }
}

void
GicDistributor::acknowledge(CpuId cpu, const PendingIrq &p)
{
    if (p.irq >= kMaxIrqs)
        return;
    state_.consume(cpu, p);
    linesChanged(state_.cpusOf(cpu, p.irq));
}

std::uint64_t
GicDistributor::read(CpuId cpu, Addr offset, unsigned)
{
    return state_.read(cpu, offset, numCpus_);
}

void
GicDistributor::write(CpuId cpu, Addr offset, std::uint64_t value, unsigned)
{
    std::uint32_t v = static_cast<std::uint32_t>(value);
    if (offset == gicd::SGIR)
        writeSgir(cpu, v); // refreshes the lines of the CPUs it pends
    else if (state_.write(cpu, offset, v))
        linesChanged(~0u);
}

void
GicDistributor::snapshotRebind()
{
    // The in-flight deliveries' events were recreated (callback-less) by
    // their target CPUs' queue restores; give each one back its callback.
    for (const Inflight &f : inflight_) {
        machine_.cpuBase(f.target).events().claim(
            f.eventId, [this, token = f.token] { deliver(token); });
    }
}

GicCpuInterface::GicCpuInterface(ArmMachine &machine, GicDistributor &dist,
                                 unsigned num_cpus)
    : Snapshottable(&machine, "gicc"), machine_(machine), dist_(dist),
      banks_(num_cpus)
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
    machine_.cpu(cpu).setIrqPin(ArmCpu::kPinPhysIrq, high);
}

bool
GicCpuInterface::irqLineHigh(CpuId cpu) const
{
    return machine_.cpu(cpu).irqPin(ArmCpu::kPinPhysIrq);
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
    dist_.acknowledge(cpu, best);
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
