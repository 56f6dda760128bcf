#include "core/vtimer.hh"

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmCpu;
using arm::TimerAccess;
using arm::TimerRegs;

VTimerEmul::VTimerEmul(Kvm &kvm)
    : Snapshottable(&kvm.machine(), "vtimer"), kvm_(kvm)
{
}

std::uint64_t
VTimerEmul::timerKey(VCpu &vcpu)
{
    return std::uint64_t(vcpu.vm().vmid()) << 32 | vcpu.index();
}

void
VTimerEmul::cancelSoftTimer(VCpu &vcpu)
{
    auto it = softTimers_.find(timerKey(vcpu));
    if (it != softTimers_.end()) {
        kvm_.host().timers().cancel(it->second);
        softTimers_.erase(it);
    }
}

void
VTimerEmul::onWorldSwitchIn(ArmCpu &cpu, VCpu &vcpu)
{
    if (!kvm_.config().useVtimers) {
        // Guests get no direct timer access at all; everything traps.
        cpu.hypSys("cnthctl").pl1PhysTimerAccess = false;
        return;
    }

    cancelSoftTimer(vcpu);
    // Program the virtual counter offset and hand the hardware virtual
    // timer to the guest; physical timer access stays hypervisor-only.
    cpu.writeCntvoff(vcpu.cntvoff);
    kvm_.machine().timer().setVirt(cpu.id(), vcpu.vtimerShadow);
    KVMARM_CHECK_ON(kvm_.machine().checkEngine(),
                    stateTransfer(&kvm_.machine(), cpu.id(),
                                  check::StateClass::Timer,
                                  check::Xfer::RestoreGuest));
    cpu.compute(2 * cpu.machine().cost().ctrlRegAccess);
    cpu.hypSys("cnthctl").pl1PhysTimerAccess = false;
}

void
VTimerEmul::onWorldSwitchOut(ArmCpu &cpu, VCpu &vcpu)
{
    cpu.hypSys("cnthctl").pl1PhysTimerAccess = true;
    if (!kvm_.config().useVtimers)
        return;

    // Save the guest timer (the 2 architected timer control registers of
    // Table 1) and disable the hardware instance for the host.
    vcpu.vtimerShadow = kvm_.machine().timer().virt(cpu.id());
    kvm_.machine().timer().setVirt(cpu.id(), TimerRegs{});
    KVMARM_CHECK_ON(kvm_.machine().checkEngine(),
                    stateTransfer(&kvm_.machine(), cpu.id(),
                                  check::StateClass::Timer,
                                  check::Xfer::SaveGuest));
    cpu.compute(2 * cpu.machine().cost().ctrlRegAccess);

    // Multiplexing (paper §3.6): if the guest timer is unexpired, program
    // a host software timer for the moment it would have fired.
    const TimerRegs &t = vcpu.vtimerShadow;
    if (!t.enable || t.imask)
        return;
    Cycles deadline = t.cval + vcpu.cntvoff;
    if (deadline <= cpu.now())
        return; // already expired; the hardware PPI is pending/handled

    cpu.compute(kvm_.host().costs().softTimerProgram);
    softTimers_[timerKey(vcpu)] =
        kvm_.host().timers().start(cpu.id(), deadline, injectCallback(vcpu));
}

std::function<void()>
VTimerEmul::injectCallback(VCpu &vcpu)
{
    arm::ArmMachine &machine = kvm_.machine();
    CpuId phys = vcpu.physCpu();
    VCpu *target = &vcpu;
    return [this, &machine, phys, target] {
        softTimers_.erase(timerKey(*target));
        // Runs from the host timer context on the VCPU's physical CPU:
        // raise the virtual timer interrupt via the virtual distributor
        // (paper §3.6).
        target->vm().vdist().injectPpi(machine.cpu(phys), *target,
                                       arm::kVirtTimerPpi);
    };
}

void
VTimerEmul::snapshotRebind()
{
    for (const auto &[key, id] : softTimers_) {
        auto vmid = static_cast<std::uint16_t>(key >> 32);
        Vm *vm = kvm_.findVm(vmid);
        if (!vm)
            fatal("vtimer: restored soft timer for unknown VM %u — create "
                  "the VM before restoring the snapshot", vmid);
        VCpu *vcpu = vm->vcpu(static_cast<unsigned>(key));
        kvm_.host().timers().rehydrate(id, injectCallback(*vcpu));
    }
}

void
VTimerEmul::onHostVtimerIrq(ArmCpu &cpu, VCpu &vcpu)
{
    // The guest's hardware virtual timer fired as a *hardware* interrupt
    // (architectural limitation, paper §3.6); the highvisor ACK/EOIs it
    // (done by the host IRQ path) and injects the virtual counterpart.
    vcpu.stats.inc("vtimer.hwfire");
    // Prevent immediate re-fire while the VM is out: mask the hardware
    // instance; the guest's view is restored at the next switch in.
    TimerRegs cur = kvm_.machine().timer().virt(cpu.id());
    vcpu.vtimerShadow = cur;
    kvm_.machine().timer().setVirt(cpu.id(), TimerRegs{});
    vcpu.vm().vdist().injectPpi(cpu, vcpu, arm::kVirtTimerPpi);
}

void
VTimerEmul::emulateTrappedAccess(ArmCpu &cpu, VCpu &vcpu, TimerAccess which,
                                 bool is_write, std::uint32_t ctl,
                                 std::uint64_t cval)
{
    // Without virtual timer hardware, timer and counter accesses are
    // emulated by the user-space machine model (QEMU) — the cause of the
    // large pipe/ctxsw overheads in Figure 3's no-vtimers runs.
    vcpu.stats.inc("vtimer.trapped");
    kvm_.host().runInUserspace(cpu, [&] {
        cpu.compute(500); // QEMU timer device model
        switch (which) {
          case TimerAccess::ReadCntvct:
            cpu.setTrappedReadValue(
                kvm_.machine().timer().physCount(cpu.id()) - vcpu.cntvoff);
            return;
          case TimerAccess::ReadCntpct:
            cpu.setTrappedReadValue(
                kvm_.machine().timer().physCount(cpu.id()) - vcpu.cntvoff);
            return;
          case TimerAccess::VirtTimer:
          case TimerAccess::PhysTimer: {
            if (!is_write) {
                cpu.setTrappedReadValue(
                    (vcpu.vtimerShadow.enable ? 1u : 0) |
                    (vcpu.vtimerShadow.imask ? 2u : 0));
                return;
            }
            // Emulated timer reprogram: QEMU keeps the compare value and
            // arms a host timer that injects the interrupt.
            vcpu.vtimerShadow.enable = ctl & 1;
            vcpu.vtimerShadow.imask = ctl & 2;
            vcpu.vtimerShadow.cval = cval;
            cancelSoftTimer(vcpu);
            if (vcpu.vtimerShadow.enable && !vcpu.vtimerShadow.imask) {
                Cycles deadline = vcpu.vtimerShadow.cval + vcpu.cntvoff;
                if (deadline <= cpu.now())
                    deadline = cpu.now() + 1;
                softTimers_[timerKey(vcpu)] = kvm_.host().timers().start(
                    vcpu.physCpu(), deadline, injectCallback(vcpu));
            }
            return;
          }
        }
    });
}

} // namespace kvmarm::core
