#include "x86/apic.hh"

#include <bit>

#include "sim/logging.hh"
#include "x86/machine.hh"

namespace kvmarm::x86 {

int
ApicState::VectorSet::highest() const
{
    for (int w = 3; w >= 0; --w) {
        if (words[w])
            return w * 64 + 63 - std::countl_zero(words[w]);
    }
    return -1;
}

std::uint8_t
ApicState::deliverable() const
{
    int best = irr_.highest();
    return best > 0 && best > isr_.highest() ? std::uint8_t(best) : 0;
}

std::uint8_t
ApicState::accept()
{
    std::uint8_t vec = deliverable();
    if (vec) {
        irr_.clear(vec);
        isr_.set(vec);
    }
    return vec;
}

bool
ApicState::eoi()
{
    int top = isr_.highest();
    if (top < 0)
        return false;
    isr_.clear(std::uint8_t(top));
    return true;
}

void
ApicState::unaccept(std::uint8_t vec)
{
    isr_.clear(vec);
    irr_.set(vec);
}

ApicState::Ipi
ApicState::decodeIcr(std::uint64_t icr_lo, unsigned self,
                     unsigned num_cpus) const
{
    if (self >= num_cpus || num_cpus > 64)
        panic("apic: ICR decode by CPU %u of %u (at most 64)", self, num_cpus);
    const std::uint64_t all = ~std::uint64_t{0} >> (64 - num_cpus);
    const std::uint64_t me = std::uint64_t{1} << self;
    const unsigned dest = (icrHi_ >> 56) & 0xFF;
    // By shorthand: destination field, self, all, all but self.
    const std::uint64_t targets[4] = {
        dest < num_cpus ? std::uint64_t{1} << dest : 0, me, all, all & ~me};
    const unsigned shorthand = (icr_lo >> 18) & 0x3;
    return {std::uint8_t(icr_lo & 0xFF), shorthand, targets[shorthand]};
}

std::uint64_t
ApicState::read(Addr offset, unsigned id) const
{
    if (offset == apic::ID)
        return std::uint64_t(id) << 24;
    return offset == apic::ICR_HI ? icrHi_ : 0;
}

bool
ApicState::write(Addr offset, std::uint64_t value)
{
    if (offset == apic::ICR_HI)
        icrHi_ = value;
    if (offset != apic::LVT_TIMER)
        return false;
    timerVector_ = value & 0xFF;
    return value & (1u << 16);
}

LocalApic::LocalApic(X86Machine &machine, unsigned num_cpus)
    : machine_(machine), cpus_(num_cpus)
{
}

void
LocalApic::refreshPin(CpuId cpu)
{
    machine_.cpu(cpu).setIrqPin(X86Cpu::kPinApic,
                                cpus_.at(cpu).state.deliverable() != 0);
}

Cycles
LocalApic::accessLatency() const
{
    return machine_.cost().apicLatency;
}

void
LocalApic::postVector(CpuId cpu, std::uint8_t vec, Cycles when)
{
    machine_.cpuBase(cpu).events().schedule(when, [this, cpu, vec] {
        cpus_.at(cpu).state.pend(vec);
        refreshPin(cpu);
    });
}

std::uint8_t
LocalApic::acceptVector(CpuId cpu)
{
    std::uint8_t vec = cpus_.at(cpu).state.accept();
    if (vec)
        refreshPin(cpu);
    return vec;
}

void
LocalApic::eoi(CpuId cpu)
{
    if (!cpus_.at(cpu).state.eoi()) {
        warn("lapic: EOI with empty ISR on cpu%u", cpu);
        return;
    }
    refreshPin(cpu);
}

void
LocalApic::programTimer(CpuId cpu, Cycles deadline)
{
    PerCpu &p = cpus_.at(cpu);
    cancelTimer(cpu);
    p.timerDeadline = deadline;
    p.timerEvent = machine_.cpuBase(cpu).events().schedule(
        deadline, [this, cpu] {
            PerCpu &q = cpus_.at(cpu);
            q.timerEvent = 0;
            postVector(cpu, q.state.timerVector(),
                       machine_.cpuBase(cpu).now());
        });
}

void
LocalApic::cancelTimer(CpuId cpu)
{
    PerCpu &p = cpus_.at(cpu);
    if (p.timerEvent) {
        machine_.cpuBase(cpu).events().cancel(p.timerEvent);
        p.timerEvent = 0;
    }
}

std::uint64_t
LocalApic::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    const PerCpu &p = cpus_.at(cpu);
    if (offset != apic::TIMER_CUR)
        return p.state.read(offset, cpu);
    Cycles now = machine_.cpuBase(cpu).now();
    return p.timerEvent && p.timerDeadline > now ? p.timerDeadline - now : 0;
}

void
LocalApic::write(CpuId cpu, Addr offset, std::uint64_t value, unsigned len)
{
    (void)len;
    Cycles now = machine_.cpuBase(cpu).now();
    if (offset == apic::EOI) {
        eoi(cpu);
    } else if (offset == apic::ICR_LO) {
        ApicState::Ipi ipi = cpus_.at(cpu).state.decodeIcr(
            value, cpu, static_cast<unsigned>(cpus_.size()));
        // A shorthand IPI to self never leaves the CPU; the rest cross
        // the APIC bus.
        for (std::uint64_t t = ipi.targets; t; t &= t - 1) {
            auto c = static_cast<CpuId>(std::countr_zero(t));
            bool local = c == cpu && ipi.shorthand != 0;
            postVector(c, ipi.vector,
                       local ? now : now + machine_.cost().ipiWire);
        }
    } else if (offset == apic::TIMER_INIT) {
        // An initial count of 0 stops the timer.
        if (value)
            programTimer(cpu, now + value);
        else
            cancelTimer(cpu);
    } else if (cpus_.at(cpu).state.write(offset, value)) {
        cancelTimer(cpu);
    }
}

} // namespace kvmarm::x86
