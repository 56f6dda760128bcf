#include "x86/apic.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "x86/machine.hh"

namespace kvmarm::x86 {

LocalApic::LocalApic(X86Machine &machine, unsigned num_cpus)
    : machine_(machine), banks_(num_cpus)
{
}

void
LocalApic::refreshPin(CpuId cpu)
{
    machine_.cpu(cpu).setIrqPin(X86Cpu::kPinApic, pendingVector(cpu) != 0);
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
        ApicBank &b = banks_.at(cpu);
        if (std::find(b.pending.begin(), b.pending.end(), vec) ==
            b.pending.end()) {
            b.pending.push_back(vec);
            refreshPin(cpu);
        }
    });
}

std::uint8_t
LocalApic::pendingVector(CpuId cpu) const
{
    const ApicBank &b = banks_.at(cpu);
    std::uint8_t best = 0;
    for (std::uint8_t v : b.pending)
        best = std::max(best, v);
    // Interrupts are only deliverable above the in-service priority.
    if (!b.inService.empty() && best <= b.inService.back())
        return 0;
    return best;
}

std::uint8_t
LocalApic::acceptVector(CpuId cpu)
{
    ApicBank &b = banks_.at(cpu);
    std::uint8_t vec = pendingVector(cpu);
    if (!vec)
        return 0;
    b.pending.erase(std::find(b.pending.begin(), b.pending.end(), vec));
    b.inService.push_back(vec);
    refreshPin(cpu);
    return vec;
}

void
LocalApic::eoi(CpuId cpu)
{
    ApicBank &b = banks_.at(cpu);
    if (b.inService.empty()) {
        warn("lapic: EOI with empty ISR on cpu%u", cpu);
        return;
    }
    b.inService.pop_back();
    refreshPin(cpu);
}

void
LocalApic::icrWrite(CpuId cpu, std::uint64_t value)
{
    ApicBank &b = banks_.at(cpu);
    std::uint8_t vec = value & 0xFF;
    CpuId dest = static_cast<CpuId>((b.icrHi >> 56) & 0xFF);
    unsigned shorthand = (value >> 18) & 0x3;
    Cycles when = machine_.cpuBase(cpu).now() + machine_.cost().ipiWire;
    switch (shorthand) {
      case 0: // destination field
        if (dest < banks_.size())
            postVector(dest, vec, when);
        break;
      case 1: // self
        postVector(cpu, vec, machine_.cpuBase(cpu).now());
        break;
      case 2: // all including self
        for (CpuId c = 0; c < banks_.size(); ++c)
            postVector(c, vec, c == cpu ? machine_.cpuBase(cpu).now() : when);
        break;
      case 3: // all but self
        for (CpuId c = 0; c < banks_.size(); ++c)
            if (c != cpu)
                postVector(c, vec, when);
        break;
    }
}

void
LocalApic::programTimer(CpuId cpu, Cycles deadline, std::uint8_t vector)
{
    ApicBank &b = banks_.at(cpu);
    cancelTimer(cpu);
    b.timerEnabled = true;
    b.timerVector = vector;
    b.timerDeadline = deadline;
    b.timerEvent = machine_.cpuBase(cpu).events().schedule(
        deadline, [this, cpu] {
            ApicBank &bank = banks_.at(cpu);
            bank.timerEvent = 0;
            if (bank.timerEnabled) {
                postVector(cpu, bank.timerVector,
                           machine_.cpuBase(cpu).now());
            }
        });
}

void
LocalApic::cancelTimer(CpuId cpu)
{
    ApicBank &b = banks_.at(cpu);
    if (b.timerEvent) {
        machine_.cpuBase(cpu).events().cancel(b.timerEvent);
        b.timerEvent = 0;
    }
    b.timerEnabled = false;
}

std::uint64_t
LocalApic::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    ApicBank &b = banks_.at(cpu);
    switch (offset) {
      case apic::ID:
        return std::uint64_t(cpu) << 24;
      case apic::ICR_HI:
        return b.icrHi;
      case apic::TIMER_CUR:
        return b.timerEnabled && b.timerDeadline >
                                     machine_.cpuBase(cpu).now()
                   ? b.timerDeadline - machine_.cpuBase(cpu).now()
                   : 0;
      default:
        return 0;
    }
}

void
LocalApic::write(CpuId cpu, Addr offset, std::uint64_t value, unsigned len)
{
    (void)len;
    ApicBank &b = banks_.at(cpu);
    switch (offset) {
      case apic::EOI:
        eoi(cpu);
        break;
      case apic::ICR_HI:
        b.icrHi = value << 0;
        break;
      case apic::ICR_LO:
        icrWrite(cpu, value);
        break;
      case apic::LVT_TIMER:
        b.timerVector = value & 0xFF;
        if (value & (1u << 16))
            cancelTimer(cpu);
        break;
      case apic::TIMER_INIT:
        programTimer(cpu, machine_.cpuBase(cpu).now() + value,
                     b.timerVector);
        break;
      default:
        break;
    }
}

} // namespace kvmarm::x86
