#include "core/lowvisor.hh"

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmCpu;
using arm::ExcClass;
using arm::Hsr;
using arm::Mode;

Lowvisor::Lowvisor(Kvm &kvm)
    : Snapshottable(&kvm.machine(), "lowvisor"), kvm_(kvm), ws_(kvm), running_(kvm.machine().numCpus(), nullptr),
      pendingEnter_(kvm.machine().numCpus(), nullptr)
{
}

void
Lowvisor::hypTrap(ArmCpu &cpu, const Hsr &hsr)
{
    VCpu *vcpu = running_.at(cpu.id());
    if (!vcpu) {
        hostHvc(cpu, hsr);
        return;
    }

    // Light traps the lowvisor disposes of without a world switch.
    if (hsr.ec == ExcClass::Hvc && hsr.iss == hvc::kTrapOnly) {
        // Table 3 "Trap": enter Hyp mode and return immediately.
        vcpu->stats.inc("exit.traponly");
        return;
    }
    if (hsr.ec == ExcClass::FpTrap) {
        // Lazy VFP switch, handled entirely in Hyp mode (paper §3.2).
        vcpu->stats.inc("exit.fp");
        ws_.switchFpuToVm(cpu, *vcpu);
        vcpu->fpuLoaded = true;
        cpu.hypSys("hcptr").trapFpu = false;
        return;
    }
    if (hsr.ec == ExcClass::Hvc && hsr.iss == hvc::kStopVcpu) {
        exitToHost(cpu, *vcpu);
        return;
    }

    guestTrap(cpu, *vcpu, hsr);
}

void
Lowvisor::guestTrap(ArmCpu &cpu, VCpu &vcpu, const Hsr &hsr)
{
    const auto &cm = cpu.machine().cost();
    vcpu.stats.inc(kExitStats[static_cast<std::size_t>(hsr.ec)]);

    // First half of the split-mode double trap: world switch to the host
    // and ERET into kernel mode, where the highvisor handles the exit.
    ws_.toHost(cpu, vcpu);
    cpu.compute(cm.hypEret);
    cpu.setMode(Mode::Svc);
    cpu.setIrqMasked(false);

    kvm_.highvisor().handleExit(cpu, vcpu, hsr);

    if (vcpu.stopRequested) {
        // Leave the CPU in the host; the guest harness observes the stop
        // flag and winds down via kStopVcpu.
    }

    // Second half of the double trap: the highvisor traps back into Hyp
    // mode to re-enter the VM.
    cpu.setIrqMasked(true);
    cpu.setMode(Mode::Hyp);
    cpu.compute(cm.hypTrapEntry);
    ws_.toVm(cpu, vcpu);
}

void
Lowvisor::enterVm(ArmCpu &cpu, VCpu &vcpu)
{
    running_.at(cpu.id()) = &vcpu;
    ws_.toVm(cpu, vcpu);
}

void
Lowvisor::exitToHost(ArmCpu &cpu, VCpu &vcpu)
{
    ws_.toHost(cpu, vcpu);
    running_.at(cpu.id()) = nullptr;
}

void
Lowvisor::checkQuiesced() const
{
    for (CpuId i = 0; i < running_.size(); ++i) {
        if (running_[i] || pendingEnter_[i])
            fatal("lowvisor: cpu%u has a resident/queued VCPU — machine "
                  "not quiesced for snapshot", i);
    }
}

void
Lowvisor::hostHvc(ArmCpu &cpu, const Hsr &hsr)
{
    if (hsr.ec == ExcClass::Irq) {
        // A physical interrupt routed to Hyp with no VM resident can only
        // be a leftover; let the host service it after ERET.
        return;
    }
    if (hsr.ec != ExcClass::Hvc)
        panic("lowvisor: unexpected trap from host: %s",
              arm::excClassName(hsr.ec));
    if (hsr.iss == hvc::kRunVcpu) {
        VCpu *vcpu = pendingEnter_.at(cpu.id());
        if (!vcpu)
            panic("lowvisor: kRunVcpu with no VCPU queued on cpu%u",
                  cpu.id());
        pendingEnter_.at(cpu.id()) = nullptr;
        enterVm(cpu, *vcpu);
        return;
    }
    if (hsr.iss == hvc::kTrapOnly)
        return;
    if (hsr.iss == hvc::kInitCpu) {
        // Per-CPU Hyp init runs in Hyp mode: program HTTBR and enable the
        // Hyp-mode MMU for this CPU (paper §4).
        kvm_.hypMem().enableOnCpu(cpu);
        return;
    }
    panic("lowvisor: unknown host hypercall %#x", hsr.iss);
}

} // namespace kvmarm::core
