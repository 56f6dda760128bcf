#include "core/kvm_stack.hh"

#include <utility>

#include "sim/logging.hh"

namespace kvmarm::core {

namespace {

arm::ArmMachine::Config
machineConfig(const KvmStack::Config &config)
{
    arm::ArmMachine::Config mc;
    mc.numCpus = config.numCpus;
    mc.ramSize = config.ramSize;
    mc.hwVgic = config.kvm.useVgic;
    mc.hwVtimers = config.kvm.useVtimers;
    return mc;
}

} // namespace

KvmStack::KvmStack(Config config)
    : machine(machineConfig(config)), host(machine), kvm(host, config.kvm)
{
}

void
KvmStack::onCpu(CpuId i, std::function<void(arm::ArmCpu &)> body)
{
    machine.cpu(i).setEntry([this, i, body = std::move(body)] {
        arm::ArmCpu &cpu = machine.cpu(i);
        host.boot(i);
        if (!kvm.initCpu(cpu))
            fatal("KvmStack: KVM/ARM init failed on cpu%u", i);
        body(cpu);
    });
}

} // namespace kvmarm::core
