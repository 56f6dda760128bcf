#include "kvmx86/kvm_x86_stack.hh"

#include <utility>

namespace kvmarm::kvmx86 {

KvmX86Stack::KvmX86Stack(const Config &config)
    : machine(config), host(machine), kvm(host)
{
}

void
KvmX86Stack::onCpu(CpuId i, std::function<void(x86::X86Cpu &)> body)
{
    machine.cpu(i).setEntry([this, i, body = std::move(body)] {
        x86::X86Cpu &cpu = machine.cpu(i);
        host.boot(i);
        kvm.initCpu(cpu);
        body(cpu);
    });
}

} // namespace kvmarm::kvmx86
