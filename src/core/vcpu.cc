#include "core/vcpu.hh"

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "core/kvm.hh"
#include "core/vm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmCpu;

VCpu::VCpu(Vm &vm, unsigned index, CpuId phys_cpu)
    : Snapshottable(&vm.kvm().machine(), "vcpu-" + std::to_string(vm.vmid()) +
                                             "-" + std::to_string(index)),
      vm_(vm), index_(index), physCpu_(phys_cpu)
{
    // Shadow ID registers (world switch step 7): the VM sees its own
    // MPIDR based on the VCPU index, and the host's MIDR.
    regs[arm::CtrlReg::MIDR] = 0x412FC0F0;
    regs[arm::CtrlReg::MPIDR] = 0x80000000 | index;
}

void
VCpu::run(ArmCpu &cpu, const std::function<void(ArmCpu &)> &guest_main)
{
    if (cpu.id() != physCpu_)
        panic("VCpu::run: vcpu%u is pinned to cpu%u, ran on cpu%u", index_,
              physCpu_, cpu.id());
    if (cpu.mode() != arm::Mode::Svc)
        panic("VCpu::run must be entered from host kernel mode");

    Lowvisor &low = vm_.kvm().lowvisor();
    low.queueEnter(cpu.id(), this);
    Cycles entered = cpu.now();

    cpu.hvc(hvc::kRunVcpu);
    // The CPU is now in the guest world; run the guest. Every trap it
    // takes world switches to the highvisor and back behind its back.
    guest_main(cpu);
    // Final exit back to the host.
    cpu.hvc(hvc::kStopVcpu);

    stats.inc("residency.cycles", cpu.now() - entered);
}

VcpuState
VCpu::saveState(ArmCpu &cpu) const
{
    if (vm_.kvm().lowvisor().running(physCpu_) == this)
        panic("VCpu::saveState while the VCPU is resident");
    VcpuState s;
    s.regs = regs;
    s.mode = guestMode;
    s.irqMasked = guestIrqMasked;
    s.vgic = vgicShadow;
    s.vtimer = vtimerShadow;
    s.vtimerOffsetTicks = cpu.now() - cntvoff; // current CNTVCT
    s.shadowActlr = shadowActlr;
    s.shadowCp14 = shadowCp14;
    return s;
}

void
VCpu::restoreState(ArmCpu &cpu, const VcpuState &s)
{
    regs = s.regs;
    guestMode = s.mode;
    guestIrqMasked = s.irqMasked;
    vgicShadow = s.vgic;
    vtimerShadow = s.vtimer;
    // Preserve the guest's virtual time across the move: CNTVCT continues
    // from where it was saved.
    cntvoff = cpu.now() - s.vtimerOffsetTicks;
    shadowActlr = s.shadowActlr;
    shadowCp14 = s.shadowCp14;
}

} // namespace kvmarm::core
