#include "core/kvm.hh"

#include <algorithm>

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

namespace {

/** Clamp requested features to what the hardware provides. */
KvmConfig
clampConfig(KvmConfig cfg, const arm::ArmMachine::Config &hw)
{
    cfg.useVgic = cfg.useVgic && hw.hwVgic;
    cfg.useVtimers = cfg.useVtimers && hw.hwVtimers;
    return cfg;
}

} // namespace

// The KVM layer's stateful components register after the host kernel's:
// this object first, then hypMem_, lowvisor_ and vtimer_ (Highvisor is
// stateless).
Kvm::Kvm(host::HostKernel &host, const KvmConfig &config)
    : Snapshottable(&host.machine(), "kvm"), host_(host), config_(clampConfig(config, host.machine().config())),
      hypMem_(host.machine(), host.mm()), lowvisor_(*this),
      highvisor_(*this), vtimer_(*this),
      lowvisorOnCpu_(host.machine().numCpus())
{
}

void
Kvm::unregisterVm(Vm *vm)
{
    auto it = std::find(vms_.begin(), vms_.end(), vm);
    if (it != vms_.end())
        vms_.erase(it);
}

Vm *
Kvm::findVm(std::uint16_t vmid)
{
    for (Vm *vm : vms_)
        if (vm->vmid() == vmid)
            return vm;
    return nullptr;
}

void
Kvm::snapshotRebind()
{
    // Register again if the snapshot had the handlers: a clone's handler
    // table starts empty, and on a self-restore requestIrq simply
    // overwrites.
    if (irqHandlersRegistered_) {
        irqHandlersRegistered_ = false;
        registerHostIrqHandlers();
    }
    for (CpuId i = 0; i < lowvisorOnCpu_.size(); ++i)
        if (lowvisorOnCpu_[i])
            machine().cpu(i).setHypVectors(&lowvisor_);
}

void
Kvm::registerHostIrqHandlers()
{
    if (irqHandlersRegistered_)
        return;
    irqHandlersRegistered_ = true;

    // Virtual timer PPI: the guest's hardware virtual timer fires as a
    // hardware interrupt; inject the virtual counterpart (paper §3.6).
    host_.requestIrq(arm::kVirtTimerPpi,
                     [this](arm::ArmCpu &cpu, IrqId) {
                         if (VCpu *v = lowvisor_.running(cpu.id()))
                             vtimer_.onHostVtimerIrq(cpu, *v);
                     });

    // VGIC maintenance interrupt: no action needed beyond the world
    // switch that already happened — the next entry refills the LRs.
    host_.requestIrq(arm::kMaintenancePpi, [](arm::ArmCpu &cpu, IrqId) {
        cpu.stats().inc("kvm.maintenance");
    });

    // The host timer tick KVM uses to preempt a running guest when a
    // same-CPU software injection needs delivery (hrtimer semantics).
    host_.requestIrq(arm::kHypTimerPpi, [](arm::ArmCpu &cpu, IrqId) {
        cpu.stats().inc("kvm.tick");
    });

    // Kick SGI: its only purpose is to force the target out of guest
    // mode so the next entry picks up new virtual interrupt state.
    host_.requestIrq(kKickSgi, [this](arm::ArmCpu &cpu, IrqId) {
        cpu.stats().inc("kvm.kick");
        cpu.compute(config_.kickHandlerCost);
    });
}

bool
Kvm::initCpu(arm::ArmCpu &cpu)
{
    if (!host_.bootedInHyp()) {
        warn("kvm [cpu%u]: kernel not booted in Hyp mode; KVM/ARM "
             "disabled (paper §4)", cpu.id());
        return false;
    }
    hypMem_.build();
    if (!host_.installHypVectors(cpu, &lowvisor_))
        return false;
    // Enable the Hyp MMU from Hyp mode itself: HTTBR/HSCTLR are Hyp-only
    // registers, so per-CPU enablement is a hypercall into the lowvisor
    // (the same protocol the boot stub uses, paper §4).
    cpu.hvc(hvc::kInitCpu);
    registerHostIrqHandlers();
    enabled_ = true;
    return true;
}

std::unique_ptr<Vm>
Kvm::createVm(Addr guest_ram_size)
{
    if (!enabled_)
        fatal("Kvm::createVm before successful initCpu");
    return std::make_unique<Vm>(*this, nextVmid_++, guest_ram_size);
}

} // namespace kvmarm::core
