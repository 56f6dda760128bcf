#include "core/world_switch.hh"

#include <array>

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::ListReg;
using arm::LrState;
using arm::Mode;

namespace {

/** GICH offsets the lazy VGIC transfers move, in issue order. */
constexpr std::array<Addr, 2> kLazyRestoreRegs = {arm::gich::HCR,
                                                  arm::gich::VMCR};
constexpr std::array<Addr, 2> kLazySaveRegs = {arm::gich::ELRSR0,
                                               arm::gich::VMCR};
constexpr std::array<Addr, 1> kHcrReg = {arm::gich::HCR};

/** Where @p off sits in the full-switch control list. */
constexpr std::size_t
ctrlSlot(Addr off)
{
    std::size_t i = 0;
    while (arm::kVgicCtrlSaveList[i] != off)
        ++i;
    return i;
}

/** The control registers the shadow keeps; every other word of the list
 *  is written as zero and its read value is dropped. */
constexpr std::size_t kHcrSlot = ctrlSlot(arm::gich::HCR);
constexpr std::size_t kVmcrSlot = ctrlSlot(arm::gich::VMCR);
constexpr std::size_t kApr0Slot = ctrlSlot(arm::gich::APR0);
static_assert(ctrlSlot(arm::gich::APR1) == kApr0Slot + 1 &&
              ctrlSlot(arm::gich::APR2) == kApr0Slot + 2 &&
              ctrlSlot(arm::gich::APR3) == kApr0Slot + 3);
constexpr std::size_t kLr0Slot = arm::kVgicCtrlSaveList.size();

} // namespace

WorldSwitch::WorldSwitch(Kvm &kvm)
    : kvm_(kvm), hostCtx_(kvm.machine().numCpus()),
      hostFpu_(kvm.machine().numCpus())
{
}

void
WorldSwitch::switchFpuToVm(ArmCpu &cpu, VCpu &vcpu)
{
    check::InvariantEngine *const ck = cpu.machine().checkEngine();
    const auto &cm = cpu.machine().cost();
    FpuPark &park = hostFpu_.at(cpu.id());
    park.vfp = cpu.regs().vfp;
    park.vfpCtrl = cpu.regs().vfpCtrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Fpu,
                               check::Xfer::SaveHost));
    cpu.regs().vfp = vcpu.regs.vfp;
    cpu.regs().vfpCtrl = vcpu.regs.vfpCtrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Fpu,
                               check::Xfer::RestoreGuest));
    cpu.compute(2 * (arm::kNumVfpDataRegs * cm.vfpRegAccess +
                     arm::kNumVfpCtrlRegs * cm.ctrlRegAccess));
}

void
WorldSwitch::switchFpuToHost(ArmCpu &cpu, VCpu &vcpu)
{
    check::InvariantEngine *const ck = cpu.machine().checkEngine();
    const auto &cm = cpu.machine().cost();
    FpuPark &park = hostFpu_.at(cpu.id());
    vcpu.regs.vfp = cpu.regs().vfp;
    vcpu.regs.vfpCtrl = cpu.regs().vfpCtrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Fpu,
                               check::Xfer::SaveGuest));
    cpu.regs().vfp = park.vfp;
    cpu.regs().vfpCtrl = park.vfpCtrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Fpu,
                               check::Xfer::RestoreHost));
    cpu.compute(2 * (arm::kNumVfpDataRegs * cm.vfpRegAccess +
                     arm::kNumVfpCtrlRegs * cm.ctrlRegAccess));
}

void
WorldSwitch::restoreVgic(ArmCpu &cpu, VCpu &vcpu)
{
    check::InvariantEngine *const ck = cpu.machine().checkEngine();
    const KvmConfig &cfg = kvm_.config();
    const Addr gich = ArmMachine::kGichBase;
    arm::VgicBank &sh = vcpu.vgicShadow;

    bool any_lr = false;
    for (const ListReg &lr : sh.lr)
        any_lr |= lr.state != LrState::Empty;

    std::uint32_t hcr = (sh.en ? 1u : 0) | (sh.uie ? 2u : 0);
    std::uint32_t vmcr =
        (sh.vmEnabled ? 1u : 0) | (std::uint32_t(sh.vmPmr) << 24);

    if (cfg.lazyVgic && !any_lr) {
        // Optimization of §5.2/§6: nothing in flight, touch only the
        // enable and the VM-interface configuration.
        std::array<std::uint32_t, 2> vals = {hcr, vmcr};
        cpu.regBurst(gich, kLazyRestoreRegs, vals, true);
        vcpu.vgicHwLive = false;
        KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                                   check::StateClass::Vgic,
                                   check::Xfer::RestoreGuest));
        return;
    }

    // Unoptimized KVM/ARM: completely context switch all VGIC state —
    // the 16 control registers and 4 list registers of Table 1 — over
    // MMIO on every switch (paper §3.5).
    std::array<std::uint32_t, arm::kVgicSwitchList.size()> vals{};
    vals[kHcrSlot] = hcr;
    vals[kVmcrSlot] = vmcr;
    for (unsigned i = 0; i < sh.apr.size(); ++i)
        vals[kApr0Slot + i] = sh.apr[i];
    for (unsigned i = 0; i < arm::kNumListRegs; ++i)
        vals[kLr0Slot + i] = sh.lr[i].pack();
    cpu.regBurst(gich, arm::kVgicSwitchList, vals, true);
    vcpu.vgicHwLive = true;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Vgic,
                               check::Xfer::RestoreGuest));
}

void
WorldSwitch::saveVgic(ArmCpu &cpu, VCpu &vcpu)
{
    check::InvariantEngine *const ck = cpu.machine().checkEngine();
    const KvmConfig &cfg = kvm_.config();
    const Addr gich = ArmMachine::kGichBase;
    arm::VgicBank &sh = vcpu.vgicShadow;

    std::array<std::uint32_t, 1> hcr_disabled = {0};
    if (cfg.lazyVgic && !vcpu.vgicHwLive) {
        // Check the empty status and pick up VM-interface changes only.
        std::array<std::uint32_t, 2> vals{};
        cpu.regBurst(gich, kLazySaveRegs, vals, false);
        sh.vmEnabled = vals[1] & 1;
        sh.vmPmr = static_cast<std::uint8_t>(vals[1] >> 24);
        cpu.regBurst(gich, kHcrReg, hcr_disabled, true);
        KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                                   check::StateClass::Vgic,
                                   check::Xfer::SaveGuest));
        return;
    }

    // Decoding after the whole burst is the same as decoding each value
    // as it arrives: only the world switch writes the shadow, so nothing
    // that runs mid-burst can observe the difference.
    std::array<std::uint32_t, arm::kVgicSwitchList.size()> vals{};
    cpu.regBurst(gich, arm::kVgicSwitchList, vals, false);
    sh.en = vals[kHcrSlot] & 1;
    sh.uie = vals[kHcrSlot] & 2;
    sh.vmEnabled = vals[kVmcrSlot] & 1;
    sh.vmPmr = static_cast<std::uint8_t>(vals[kVmcrSlot] >> 24);
    for (unsigned i = 0; i < sh.apr.size(); ++i)
        sh.apr[i] = vals[kApr0Slot + i];
    for (unsigned i = 0; i < arm::kNumListRegs; ++i)
        sh.lr[i] = ListReg::unpack(vals[kLr0Slot + i]);
    // Disable the virtual interface while the host runs.
    cpu.regBurst(gich, kHcrReg, hcr_disabled, true);
    vcpu.vgicHwLive = false;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Vgic,
                               check::Xfer::SaveGuest));
}

void
WorldSwitch::toVm(ArmCpu &cpu, VCpu &vcpu)
{
    check::InvariantEngine *const ck = cpu.machine().checkEngine();
    const auto &cm = cpu.machine().cost();
    const KvmConfig &cfg = kvm_.config();
    HostContext &host = hostCtx_.at(cpu.id());
    KVMARM_CHECK_ON(ck, worldSwitchBegin(&cpu.machine(), cpu.id(),
                                  check::SwitchDir::ToVm));

    // Entry bookkeeping, including the atomic operations the mainline
    // world switch performs (the ~300-cycle optimization opportunity of
    // paper §5.2 that missed v3.10).
    cpu.compute(4 * cm.atomicOp);

    // (1) Store all host GP registers on the Hyp stack.
    host.regs.gp = cpu.regs().gp;
    host.valid = true;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Gp,
                               check::Xfer::SaveHost));
    cpu.compute(arm::kNumGpRegs * cm.gpRegSave);

    // (2) Configure the VGIC for the VM.
    if (cfg.useVgic) {
        vcpu.vm().vdist().flushToShadow(vcpu);
        restoreVgic(cpu, vcpu);
    }

    // (3) Configure the timers for the VM.
    kvm_.vtimer().onWorldSwitchIn(cpu, vcpu);

    // (4) Save all host-specific configuration registers onto the Hyp
    //     stack. Hyp mode has its own configuration registers, so this
    //     does not disturb the executing lowvisor (paper §3.2).
    host.regs.ctrl = cpu.regs().ctrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Ctrl,
                               check::Xfer::SaveHost));
    cpu.compute(arm::kNumCtrlRegs * cm.ctrlRegAccess);

    // (5) Load the VM's configuration registers — including (7) the
    //     VM-specific shadow ID registers (MIDR/MPIDR slots).
    cpu.regs().ctrl = vcpu.regs.ctrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Ctrl,
                               check::Xfer::RestoreGuest));
    cpu.compute(arm::kNumCtrlRegs * cm.ctrlRegAccess);

    // (6) Configure Hyp mode to trap FP (lazily), interrupts, WFI/WFE,
    //     SMC, sensitive configuration registers and debug accesses.
    arm::HypState &h = cpu.hypSys("hcr");
    h.hcr.imo = true;
    h.hcr.fmo = true;
    h.hcr.twi = true;
    h.hcr.twe = true;
    h.hcr.tsc = true;
    h.hcr.tac = true;
    h.hcr.swio = true;
    h.hcr.tidcp = true;
    h.trapCp14 = true;
    h.hcr.vi = !cfg.useVgic && vcpu.softVirqPending;
    if (h.hcr.vi) {
        // Without a VGIC the hypervisor must emulate the interrupt
        // delivery itself on the entry path.
        cpu.compute(cfg.viInjectCost);
    }
    if (cfg.lazyFpu) {
        h.trapFpu = !vcpu.fpuLoaded;
    } else {
        h.trapFpu = false;
        switchFpuToVm(cpu, vcpu);
    }
    cpu.compute(arm::kWorldSwitchTrapConfigWrites * cm.ctrlRegAccess);

    // (8) Set the Stage-2 page table base register (VTTBR) and enable
    //     Stage-2 address translation.
    h.vttbr = vcpu.vm().stage2().vttbr();
    h.hcr.vm = true;
    cpu.compute(cm.stage2Serialize);

    // (9) Restore all guest GP registers.
    cpu.regs().gp = vcpu.regs.gp;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Gp,
                               check::Xfer::RestoreGuest));
    cpu.compute(arm::kNumGpRegs * cm.gpRegSave);

    // (10) Trap into either user or kernel mode: performed by the ERET at
    //      the end of the current Hyp trap.
    cpu.setOsVectors(vcpu.guestOs);
    cpu.setHypReturn(vcpu.guestMode, vcpu.guestIrqMasked);
    vcpu.stats.inc("worldswitch.in");
    KVMARM_CHECK_ON(ck, worldSwitchEnd(&cpu.machine(), cpu.id(),
                                check::SwitchDir::ToVm, cpu.hyp()));
}

void
WorldSwitch::toHost(ArmCpu &cpu, VCpu &vcpu)
{
    check::InvariantEngine *const ck = cpu.machine().checkEngine();
    const auto &cm = cpu.machine().cost();
    const KvmConfig &cfg = kvm_.config();
    HostContext &host = hostCtx_.at(cpu.id());
    if (!host.valid)
        panic("WorldSwitch::toHost with no saved host context");
    KVMARM_CHECK_ON(ck, worldSwitchBegin(&cpu.machine(), cpu.id(),
                                  check::SwitchDir::ToHost));

    // Capture the guest's interrupted mode/mask (SPSR_hyp).
    vcpu.guestMode = cpu.hypTrappedMode();
    vcpu.guestIrqMasked = cpu.hypTrappedIrqMask();
    cpu.compute(4 * cm.atomicOp);

    // (1) Store all VM GP registers.
    vcpu.regs.gp = cpu.regs().gp;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Gp,
                               check::Xfer::SaveGuest));
    cpu.compute(arm::kNumGpRegs * cm.gpRegSave);

    // (2) Disable Stage-2 translation.
    arm::HypState &h = cpu.hypSys("hcr");
    h.hcr.vm = false;
    cpu.compute(cm.stage2Serialize);

    // (3) Configure Hyp mode to not trap any register access or
    //     instructions.
    h.hcr.imo = false;
    h.hcr.fmo = false;
    h.hcr.twi = false;
    h.hcr.twe = false;
    h.hcr.tsc = false;
    h.hcr.tac = false;
    h.hcr.swio = false;
    h.hcr.tidcp = false;
    h.hcr.vi = false;
    h.trapCp14 = false;
    if (vcpu.fpuLoaded || !cfg.lazyFpu) {
        switchFpuToHost(cpu, vcpu);
        vcpu.fpuLoaded = false;
    }
    h.trapFpu = false;
    cpu.compute(arm::kWorldSwitchTrapConfigWrites * cm.ctrlRegAccess);

    // (4) Save all VM-specific configuration registers.
    vcpu.regs.ctrl = cpu.regs().ctrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Ctrl,
                               check::Xfer::SaveGuest));
    cpu.compute(arm::kNumCtrlRegs * cm.ctrlRegAccess);

    // (5) Load the host's configuration registers onto the hardware.
    cpu.regs().ctrl = host.regs.ctrl;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Ctrl,
                               check::Xfer::RestoreHost));
    cpu.compute(arm::kNumCtrlRegs * cm.ctrlRegAccess);

    // (6) Configure the timers for the host.
    kvm_.vtimer().onWorldSwitchOut(cpu, vcpu);

    // (7) Save VM-specific VGIC state.
    if (cfg.useVgic) {
        saveVgic(cpu, vcpu);
        vcpu.vm().vdist().syncFromShadow(vcpu);
    }

    // (8) Restore all host GP registers.
    cpu.regs().gp = host.regs.gp;
    KVMARM_CHECK_ON(ck, stateTransfer(&cpu.machine(), cpu.id(),
                               check::StateClass::Gp,
                               check::Xfer::RestoreHost));
    cpu.compute(arm::kNumGpRegs * cm.gpRegSave);

    // (9) Trap into kernel mode.
    cpu.setOsVectors(&kvm_.host());
    cpu.setHypReturn(Mode::Svc, false);
    vcpu.stats.inc("worldswitch.out");
    KVMARM_CHECK_ON(ck, worldSwitchEnd(&cpu.machine(), cpu.id(),
                                check::SwitchDir::ToHost, cpu.hyp()));
}

} // namespace kvmarm::core
