#include "core/vm.hh"

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmMachine;

Vm::Vm(Kvm &kvm, std::uint16_t vmid, Addr guest_ram_size)
    : Snapshottable(&kvm.machine(), "vm-" + std::to_string(vmid)), kvm_(kvm),
      vmid_(vmid), ramSize_(guest_ram_size),
      stage2_(kvm.host().mm(), vmid, ArmMachine::kRamBase, guest_ram_size),
      vdist_(*this)
{
    if (!kvm.enabled())
        fatal("Vm: KVM/ARM is not initialized (no Hyp mode?)");
    if (kvm_.config().useVgic) {
        // The VM sees the VGIC virtual CPU interface at the address where
        // it expects the GIC CPU interface (paper §3.5); the hypervisor
        // control interface stays unmapped and inaccessible.
        stage2_.mapDevicePage(ArmMachine::kGiccBase, ArmMachine::kGicvBase);
    }
    kvm_.registerVm(this);
}

Vm::~Vm()
{
    kvm_.unregisterVm(this);
}

Addr
Vm::ramBase() const
{
    return ArmMachine::kRamBase;
}

VCpu &
Vm::addVcpu(CpuId phys_cpu)
{
    if (phys_cpu >= kvm_.machine().numCpus())
        fatal("Vm::addVcpu: no physical cpu %u", phys_cpu);
    auto vcpu = std::make_unique<VCpu>(
        *this, static_cast<unsigned>(vcpus_.size()), phys_cpu);
    // Guest virtual time starts at zero: CNTVCT = CNTPCT - CNTVOFF.
    vcpu->cntvoff = kvm_.machine().cpuBase(phys_cpu).now();
    vcpus_.push_back(std::move(vcpu));
    vdist_.addVcpu(static_cast<unsigned>(vcpus_.size()));
    return *vcpus_.back();
}

VCpu *
Vm::runningOn(CpuId phys)
{
    VCpu *v = kvm_.lowvisor().running(phys);
    return (v && &v->vm() == this) ? v : nullptr;
}

void
Vm::irqLine(arm::ArmCpu &current_cpu, IrqId spi)
{
    vdist_.injectSpi(current_cpu, spi);
}

} // namespace kvmarm::core
