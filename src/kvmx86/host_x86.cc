#include "kvmx86/host_x86.hh"

#include "sim/logging.hh"

namespace kvmarm::kvmx86 {

using x86::X86Cpu;

X86Host::X86Host(x86::X86Machine &machine)
    : machine_(machine), mm_(machine.ram()), timers_(machine)
{
}

void
X86Host::boot(CpuId cpu_id)
{
    X86Cpu &cpu = machine_.cpu(cpu_id);
    cpu.setOsVectors(this);
    cpu.setIf(true);
}

void
X86Host::requestVector(std::uint8_t vec, VectorHandler handler)
{
    handlers_[vec] = std::move(handler);
}

void
X86Host::interrupt(X86Cpu &cpu, std::uint8_t vector)
{
    cpu.compute(140); // irq_enter + vector dispatch
    if (handlers_[vector])
        handlers_[vector](cpu);
    else
        cpu.stats().inc("x86host.irq.unhandled");
    cpu.memWrite(x86::kApicBase + x86::apic::EOI, 0, 4);
}

void
X86Host::syscall(X86Cpu &cpu, std::uint32_t nr)
{
    (void)cpu;
    (void)nr;
}

void
X86Host::blockUntil(X86Cpu &cpu, const std::function<bool()> &pred)
{
    bool saved = cpu.interruptsEnabled();
    cpu.setIf(true);
    cpu.waitUntil(pred);
    cpu.compute(260); // scheduler wakeup
    cpu.setIf(saved);
}

void
X86Host::runInUserspace(X86Cpu &cpu, FunctionRef<void()> user_work)
{
    const x86::X86CostModel &cm = machine_.cost();
    cpu.compute(cm.kernelToUser);
    bool saved = cpu.userMode();
    cpu.setUserMode(true);
    user_work();
    cpu.setUserMode(saved);
    cpu.compute(cm.userToKernel);
}

} // namespace kvmarm::kvmx86
