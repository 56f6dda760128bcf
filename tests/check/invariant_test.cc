/**
 * @file
 * Tests for the split-mode invariant checker: each built-in rule is
 * exercised with a deliberately injected violation (proving the rule
 * fires), with the nearest legal behaviour (proving it stays quiet), and
 * the full KVM/ARM stack is driven under Enforce mode to prove the real
 * hypervisor paths are violation-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "core/stage2_mmu.hh"
#include "host/kernel.hh"
#include "host/mm.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::Mode;
using check::CheckMode;
using check::ScopedCheckMode;
using check::StateClass;
using check::SwitchDir;
using check::Xfer;

#if !KVMARM_INVARIANTS_ENABLED

TEST(InvariantTest, HooksCompiledOut)
{
    GTEST_SKIP() << "built with -DKVMARM_INVARIANTS=OFF";
}

#else // KVMARM_INVARIANTS_ENABLED

ArmMachine::Config
smallMachine(unsigned cpus = 1)
{
    ArmMachine::Config mc;
    mc.numCpus = cpus;
    mc.ramSize = 64 * kMiB;
    return mc;
}

/** A Hyp state programmed the way a correct toVm leaves it. */
arm::HypState
guestEntryHypState()
{
    arm::HypState h;
    h.hcr.vm = true;
    h.hcr.imo = true;
    h.hcr.fmo = true;
    h.hcr.twi = true;
    h.hcr.twe = true;
    h.hcr.tsc = true;
    h.hcr.tac = true;
    h.hcr.swio = true;
    h.hcr.tidcp = true;
    h.vttbr = 0x8000000 | (5ull << 48);
    return h;
}

// ---------------------------------------------------------------- privilege

TEST(PrivilegeRule, FlagsHypRegisterAccessOutsideHypMode)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    ArmCpu &cpu = machine.cpu(0); // boots in Svc mode

    cpu.hypSys("hcr");
    EXPECT_EQ(check::engine().violationCount("privilege"), 1u);

    // The same access from Hyp mode is legal.
    cpu.setMode(Mode::Hyp);
    cpu.hypSys("hcr");
    cpu.setMode(Mode::Svc);
    EXPECT_EQ(check::engine().violationCount("privilege"), 1u);
}

TEST(PrivilegeRule, EnforceModeThrowsFatalError)
{
    ScopedCheckMode scoped(CheckMode::Enforce);
    ArmMachine machine(smallMachine());
    EXPECT_THROW(machine.cpu(0).hypSys("vttbr"), FatalError);
}

TEST(PrivilegeRule, OffModeRecordsNothing)
{
    ScopedCheckMode scoped(CheckMode::Off);
    ArmMachine machine(smallMachine());
    machine.cpu(0).hypSys("hcr");
    EXPECT_EQ(check::engine().violationCount(), 0u);
}

// --------------------------------------------------------------- ws-pairing

/** Drive the pairing ledger through one switch cycle at the event level. */
class WsPairingTest : public ::testing::Test
{
  protected:
    void
    enterGuest(bool with_fpu = false)
    {
        auto &eng = check::engine();
        eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
        eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::SaveHost);
        eng.stateTransfer(&dom, 0, StateClass::Ctrl, Xfer::SaveHost);
        eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::RestoreGuest);
        eng.stateTransfer(&dom, 0, StateClass::Ctrl, Xfer::RestoreGuest);
        if (with_fpu) {
            eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::SaveHost);
            eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::RestoreGuest);
        }
        eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, guestEntryHypState());
    }

    void
    exitGuest(bool restore_ctrl, bool with_fpu = false)
    {
        auto &eng = check::engine();
        eng.worldSwitchBegin(&dom, 0, SwitchDir::ToHost);
        eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::SaveGuest);
        eng.stateTransfer(&dom, 0, StateClass::Ctrl, Xfer::SaveGuest);
        if (with_fpu) {
            eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::SaveGuest);
            eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::RestoreHost);
        }
        eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::RestoreHost);
        if (restore_ctrl)
            eng.stateTransfer(&dom, 0, StateClass::Ctrl, Xfer::RestoreHost);
        eng.worldSwitchEnd(&dom, 0, SwitchDir::ToHost, arm::HypState{});
    }

    int dom = 0; //!< stand-in domain token
};

TEST_F(WsPairingTest, CompleteSwitchCycleIsClean)
{
    ScopedCheckMode scoped(CheckMode::Log);
    enterGuest();
    exitGuest(true);
    EXPECT_EQ(check::engine().violationCount("ws-pairing"), 0u);
}

TEST_F(WsPairingTest, FlagsSkippedHostRestore)
{
    ScopedCheckMode scoped(CheckMode::Log);
    enterGuest();
    exitGuest(false); // ctrl registers saved in toVm but never restored
    EXPECT_EQ(check::engine().violationCount("ws-pairing"), 1u);
}

TEST_F(WsPairingTest, FlagsGuestEntryWithoutHostSave)
{
    ScopedCheckMode scoped(CheckMode::Log);
    auto &eng = check::engine();
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    // Only GP moved; ctrl registers were never saved or loaded.
    eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::SaveHost);
    eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::RestoreGuest);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, guestEntryHypState());
    EXPECT_EQ(check::engine().violationCount("ws-pairing"), 2u);
}

TEST_F(WsPairingTest, LazyFpuTransferJoinsTheOpenEpoch)
{
    ScopedCheckMode scoped(CheckMode::Log);
    enterGuest();
    // Guest touches VFP mid-run: the deferred switch happens via the
    // HCPTR trap while the epoch is open.
    auto &eng = check::engine();
    eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::SaveHost);
    eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::RestoreGuest);
    exitGuest(true, /*with_fpu=*/true);
    EXPECT_EQ(check::engine().violationCount("ws-pairing"), 0u);
}

TEST_F(WsPairingTest, FlagsLazyFpuLoadedButNeverSavedBack)
{
    ScopedCheckMode scoped(CheckMode::Log);
    enterGuest(/*with_fpu=*/true);
    exitGuest(true, /*with_fpu=*/false); // guest VFP state dropped
    // Two asymmetries: host VFP saved but never restored, and guest VFP
    // loaded but never captured back.
    EXPECT_EQ(check::engine().violationCount("ws-pairing"), 2u);
}

// ---------------------------------------------------------- stage2-isolation

TEST(Stage2IsolationRule, FlagsCrossVmPhysicalPage)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int mm = 0;
    auto &eng = check::engine();
    eng.stage2Map(&mm, 1, 0x80000000, 0x1000, false);
    eng.stage2Map(&mm, 2, 0x80000000, 0x2000, false); // distinct pa: fine
    EXPECT_EQ(eng.violationCount("stage2-isolation"), 0u);
    eng.stage2Map(&mm, 2, 0x80001000, 0x1000, false); // vm1's page
    EXPECT_EQ(eng.violationCount("stage2-isolation"), 1u);
    // After vm1 unmaps it, the page may change owners.
    eng.stage2Unmap(&mm, 1, 0x80000000, 0x1000);
    eng.stage2Map(&mm, 3, 0x80000000, 0x1000, false);
    EXPECT_EQ(eng.violationCount("stage2-isolation"), 1u);
}

TEST(Stage2IsolationRule, FlagsMappingOfProtectedHypPage)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int mm = 0;
    auto &eng = check::engine();
    eng.protectPage(&mm, 0x5000, "hyp-table");
    eng.stage2Map(&mm, 1, 0x80000000, 0x5000, false);
    EXPECT_EQ(eng.violationCount("stage2-isolation"), 1u);
    // Unprotecting releases the page for guest use.
    eng.unprotectPage(&mm, 0x5000);
    eng.stage2Map(&mm, 1, 0x80001000, 0x5000, false);
    EXPECT_EQ(eng.violationCount("stage2-isolation"), 1u);
}

TEST(Stage2IsolationRule, FlagsDevicePassthroughOfAnotherVmsRam)
{
    // Real-object injection: vm A faults in a RAM page, then vm B gets the
    // same physical page mapped as a passthrough device region.
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    host::Mm mm(machine.ram());
    core::Stage2Mmu vm_a(mm, 1, ArmMachine::kRamBase, 16 * kMiB);
    core::Stage2Mmu vm_b(mm, 2, ArmMachine::kRamBase, 16 * kMiB);

    ASSERT_TRUE(vm_a.handleRamFault(ArmMachine::kRamBase + 0x1000));
    Addr stolen = *vm_a.ipaToPa(ArmMachine::kRamBase + 0x1000);
    EXPECT_EQ(check::engine().violationCount("stage2-isolation"), 0u);

    vm_b.mapDevicePage(ArmMachine::kGicvBase, stolen);
    EXPECT_EQ(check::engine().violationCount("stage2-isolation"), 1u);
}

TEST(Stage2IsolationRule, SharedDeviceInterfaceIsLegal)
{
    // Both VMs map the GICV hardware interface: device pages have no
    // single RAM owner and are legitimately shared (paper §3.5).
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    host::Mm mm(machine.ram());
    core::Stage2Mmu vm_a(mm, 1, ArmMachine::kRamBase, 16 * kMiB);
    core::Stage2Mmu vm_b(mm, 2, ArmMachine::kRamBase, 16 * kMiB);
    vm_a.mapDevicePage(ArmMachine::kGiccBase, ArmMachine::kGicvBase);
    vm_b.mapDevicePage(ArmMachine::kGiccBase, ArmMachine::kGicvBase);
    EXPECT_EQ(check::engine().violationCount("stage2-isolation"), 0u);
}

// -------------------------------------------------------------- trap-config

TEST(TrapConfigRule, CleanGuestEntryPasses)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, guestEntryHypState());
    EXPECT_EQ(eng.violationCount("trap-config"), 0u);
}

TEST(TrapConfigRule, FlagsMissingTrapBitsAtGuestEntry)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    arm::HypState h = guestEntryHypState();
    h.hcr.tsc = false;  // SMC would reach the guest unmediated
    h.hcr.twi = false;  // WFI would idle the physical CPU
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, h);
    EXPECT_EQ(eng.violationCount("trap-config"), 2u);
}

TEST(TrapConfigRule, FlagsGuestEntryWithoutStage2)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    arm::HypState h = guestEntryHypState();
    h.hcr.vm = false;
    h.vttbr = 0;
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, h);
    // Stage-2 disabled + null VTTBR root.
    EXPECT_EQ(eng.violationCount("trap-config"), 2u);
}

TEST(TrapConfigRule, FlagsHostReturnWithGuestConfiguration)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToHost);
    // Stage-2 and the trap set were left enabled: the host would run
    // under the guest's translation regime.
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToHost, guestEntryHypState());
    EXPECT_EQ(eng.violationCount("trap-config"), 2u);
}

TEST(TrapConfigRule, FlagsKernelModeWithWrongStage2State)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    // Enter the guest world, then observe a PL1 transition with Stage-2
    // off: the "guest" would see host physical memory.
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, guestEntryHypState());
    eng.modeChange(&dom, 0, Mode::Hyp, Mode::Svc, /*stage2_on=*/false);
    EXPECT_EQ(eng.violationCount("trap-config"), 1u);
}

// --------------------------------------------------------------------- vgic

class VgicRuleTest : public ::testing::Test
{
  protected:
    VgicRuleTest() : machine(smallMachine()) {}

    void
    writeLr(unsigned idx, IrqId virq, arm::LrState state, CpuId source = 0)
    {
        arm::ListReg lr;
        lr.virq = virq;
        lr.state = state;
        lr.source = source;
        machine.gich().write(0, arm::gich::LR0 + 4 * idx, lr.pack(), 4);
    }

    ArmMachine machine;
};

TEST_F(VgicRuleTest, FlagsDuplicatePendingVirq)
{
    ScopedCheckMode scoped(CheckMode::Log);
    writeLr(0, 40, arm::LrState::Pending);
    EXPECT_EQ(check::engine().violationCount("vgic"), 0u);
    writeLr(1, 40, arm::LrState::Pending); // same SPI queued twice
    EXPECT_EQ(check::engine().violationCount("vgic"), 1u);
}

TEST_F(VgicRuleTest, SgisFromDistinctSourcesMayCoexist)
{
    ScopedCheckMode scoped(CheckMode::Log);
    writeLr(0, 5, arm::LrState::Pending, /*source=*/0);
    writeLr(1, 5, arm::LrState::Pending, /*source=*/1);
    EXPECT_EQ(check::engine().violationCount("vgic"), 0u);
    writeLr(2, 5, arm::LrState::Pending, /*source=*/1); // same source twice
    EXPECT_EQ(check::engine().violationCount("vgic"), 1u);
}

TEST_F(VgicRuleTest, FlagsMaintenanceIrqWithoutUnderflow)
{
    ScopedCheckMode scoped(CheckMode::Log);
    auto &eng = check::engine();

    // Genuine underflow: enabled, underflow irq requested, all LRs empty.
    arm::VgicBank bank;
    bank.en = true;
    bank.uie = true;
    eng.maintenanceIrq(0, bank);
    EXPECT_EQ(eng.violationCount("vgic"), 0u);

    // An LR still holds a pending interrupt: not an underflow.
    bank.lr[2].virq = 40;
    bank.lr[2].state = arm::LrState::Pending;
    eng.maintenanceIrq(0, bank);
    EXPECT_EQ(eng.violationCount("vgic"), 1u);

    // Interface disabled: the interrupt should never have been raised.
    arm::VgicBank off;
    off.uie = true;
    eng.maintenanceIrq(0, off);
    EXPECT_EQ(eng.violationCount("vgic"), 2u);
}

// ------------------------------------------------------ full-stack coverage

/** A guest that exercises hypercalls, Stage-2 faults and VFP. */
class ProbeGuestOs : public arm::OsVectors
{
  public:
    void irq(ArmCpu &cpu) override
    {
        std::uint32_t iar = static_cast<std::uint32_t>(
            cpu.memRead(ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
    }
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "probe-guest"; }
};

/**
 * The paper's whole split-mode stack — boot, per-CPU Hyp init via
 * hypercall, guest residency with world switches, lazy VFP, Stage-2
 * demand paging, VGIC interrupt delivery — runs under Enforce mode: any
 * invariant violation anywhere in those paths throws and fails the test.
 */
TEST(FullStackInvariants, WholeGuestLifecycleIsViolationFree)
{
    ScopedCheckMode scoped(CheckMode::Enforce);

    ArmMachine::Config mc = smallMachine(2);
    ArmMachine machine(mc);
    host::HostKernel hostk(machine);
    core::Kvm kvm(hostk);
    ProbeGuestOs guest_os;

    machine.cpu(0).setEntry([&] {
        ArmCpu &cpu = machine.cpu(0);
        hostk.boot(0);
        ASSERT_TRUE(kvm.initCpu(cpu));

        auto vm = kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest_os);

        vcpu.run(cpu, [&](ArmCpu &c) {
            c.memWrite(ArmMachine::kRamBase + 0x1000, 0xAB, 4);
            c.hvc(core::hvc::kTestHypercall);
            c.fpOp(50); // lazy VFP switch via the HCPTR trap
            c.sensitiveOp(arm::SensitiveOp::ActlrRead);
            c.hvc(core::hvc::kTestHypercall);
            EXPECT_EQ(c.memRead(ArmMachine::kRamBase + 0x1000, 4), 0xABu);
        });
    });
    machine.run();

    EXPECT_EQ(check::engine().violationCount(), 0u);
}

/** What one run of the checked-twin storms produced. */
struct StormRun
{
    Cycles hvcCycles = 0;
    Cycles stage2Cycles = 0;
    std::string statDump;
    std::uint64_t checkEvents = 0;
};

/** One VM through a null-hypercall storm and then a fresh-page Stage-2
 *  fault storm four times the 256-entry TLB, under check mode @p mode. */
StormRun
runStorms(CheckMode mode)
{
    ScopedCheckMode scoped(mode);
    ArmMachine machine(smallMachine());
    host::HostKernel hostk(machine);
    core::Kvm kvm(hostk);
    std::unique_ptr<core::Vm> vm;
    core::VCpu *vcpu = nullptr;
    StormRun run;

    machine.cpu(0).setEntry([&] {
        ArmCpu &cpu = machine.cpu(0);
        hostk.boot(0);
        ASSERT_TRUE(kvm.initCpu(cpu));
        vm = kvm.createVm(32 * kMiB);
        vcpu = &vm->addVcpu(0);
        vcpu->run(cpu, [&](ArmCpu &c) {
            Cycles t0 = c.now();
            for (unsigned i = 0; i < 1'000; ++i)
                c.hvc(core::hvc::kTestHypercall);
            Cycles t1 = c.now();
            const Addr base = vm->ramBase() + 4 * kMiB;
            for (unsigned i = 0; i < 1'024; ++i)
                c.memRead(base + Addr(i) * kPageSize, 4);
            run.hvcCycles = t1 - t0;
            run.stage2Cycles = c.now() - t1;
        });
    });
    machine.run();

    std::ostringstream os;
    machine.cpu(0).stats().dump(os, "cpu0.");
    if (vcpu)
        vcpu->stats.dump(os, "vcpu.");
    run.statDump = os.str();
    if (check::InvariantEngine *eng = machine.checkEngine())
        run.checkEvents = eng->eventCount();
    return run;
}

/**
 * The engine observes and never charges: the same world-switch and
 * Stage-2 fault storms consume exactly the simulated cycles, and leave
 * exactly the CPU and vCPU statistics, under Enforce as with checking off.
 */
TEST(FullStackInvariants, EnforceChargesNoSimCycles)
{
    StormRun off = runStorms(CheckMode::Off);
    StormRun enforce = runStorms(CheckMode::Enforce);
    EXPECT_GT(off.hvcCycles, 0u);
    EXPECT_GT(off.stage2Cycles, 0u);
    EXPECT_EQ(enforce.hvcCycles, off.hvcCycles);
    EXPECT_EQ(enforce.stage2Cycles, off.stage2Cycles);
    EXPECT_EQ(enforce.statDump, off.statDump);
    EXPECT_NE(off.statDump.find("fault.stage2"), std::string::npos);
    // Not vacuous: the enforce run really was checked.
    EXPECT_EQ(off.checkEvents, 0u);
    EXPECT_GT(enforce.checkEvents, 0u);
}

// ------------------------------------------------------------------- engine

TEST(InvariantEngine, CustomRulesCanBeRegistered)
{
    class CountingRule : public check::InvariantRule
    {
      public:
        const char *name() const override { return "counting"; }
        void
        onHypAccess(check::InvariantEngine &,
                    const check::HypAccessEvent &) override
        {
            ++events;
        }
        int events = 0;
    };

    ScopedCheckMode scoped(CheckMode::Log);
    auto rule = std::make_unique<CountingRule>();
    CountingRule *raw = rule.get();
    check::engine().addRule(std::move(rule));

    check::engine().hypAccess(0, Mode::Hyp, "hcr");
    check::engine().hypAccess(0, Mode::Svc, "hcr");
    EXPECT_EQ(raw->events, 2);
    // The built-in privilege rule saw the second access too.
    EXPECT_EQ(check::engine().violationCount("privilege"), 1u);
}

TEST(InvariantEngine, ResetClearsViolationsAndShadowState)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    machine.cpu(0).hypSys("hcr");
    EXPECT_EQ(check::engine().violationCount(), 1u);
    check::engine().reset();
    EXPECT_EQ(check::engine().violationCount(), 0u);
}

// --------------------------------------------------------- engine sharding

TEST(EngineSharding, MachinesOwnPrivateEngines)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine a(smallMachine());
    ArmMachine b(smallMachine());

    check::InvariantEngine *ea = a.checkEngine();
    check::InvariantEngine *eb = b.checkEngine();
    ASSERT_NE(ea, nullptr);
    ASSERT_NE(eb, nullptr);
    EXPECT_NE(ea, eb);
    EXPECT_NE(ea, &check::engine());
    EXPECT_NE(eb, &check::engine());

    // Machines created inside the scope inherited the facade's mode.
    EXPECT_EQ(ea->mode(), CheckMode::Log);
    EXPECT_TRUE(ea->active());
}

TEST(EngineSharding, ViolationInOneVmStaysInItsEngine)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine a(smallMachine());
    ArmMachine b(smallMachine());

    // VM A commits a privilege violation; VM B does legal work only.
    a.cpu(0).hypSys("hcr"); // Svc-mode access to a Hyp register
    b.cpu(0).setMode(Mode::Hyp);
    b.cpu(0).hypSys("hcr");
    b.cpu(0).setMode(Mode::Svc);

    EXPECT_EQ(a.checkEngine()->violationCount(), 1u);
    EXPECT_EQ(a.checkEngine()->violationCount("privilege"), 1u);
    EXPECT_TRUE(b.checkEngine()->violations().empty());
    EXPECT_EQ(b.checkEngine()->violationCount(), 0u);

    // Both machines observed events; only A recorded a violation.
    EXPECT_GT(a.checkEngine()->eventCount(), 0u);
    EXPECT_GT(b.checkEngine()->eventCount(), 0u);

    // The facade aggregates across engines, so legacy process-wide
    // interrogation still sees A's violation.
    EXPECT_EQ(check::engine().violationCount("privilege"), 1u);
}

TEST(EngineSharding, RuleShadowStateIsNotShared)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine a(smallMachine());
    ArmMachine b(smallMachine());
    check::InvariantEngine *ea = a.checkEngine();
    check::InvariantEngine *eb = b.checkEngine();
    int dom = 0;

    // Open a ws-pairing epoch for the same (domain, cpu) key in both
    // engines. With shared shadow state the second begin would be flagged
    // as "toVm entered twice"; private ledgers stay quiet.
    ea->worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eb->worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    EXPECT_EQ(ea->violationCount("ws-pairing"), 0u);
    EXPECT_EQ(eb->violationCount("ws-pairing"), 0u);

    // A genuine double entry in A is still caught — and only in A.
    ea->worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    EXPECT_EQ(ea->violationCount("ws-pairing"), 1u);
    EXPECT_EQ(eb->violationCount("ws-pairing"), 0u);
}

// --------------------------------------------------------------- ring-order

TEST(RingOrderRule, CleanMessageStreamPasses)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    for (std::uint64_t i = 0; i < 4; ++i) {
        eng.ringDoorbell(&dom, 0, "ring0", i, 1000 * (i + 1),
                         static_cast<std::uint32_t>(i + 1));
        eng.ringDeliver(&dom, 0, "ring0", i, 1000 * (i + 1) + 500,
                        static_cast<std::uint32_t>(i + 1));
    }
    EXPECT_EQ(eng.violationCount("ring-order"), 0u);
}

TEST(RingOrderRule, FlagsSequenceGapAndReplay)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    eng.ringDoorbell(&dom, 0, "ring0", 0, 1000, 1);
    eng.ringDoorbell(&dom, 0, "ring0", 2, 2000, 2); // skipped seq 1
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
    eng.ringDoorbell(&dom, 0, "ring0", 2, 3000, 3); // replayed seq 2
    EXPECT_EQ(eng.violationCount("ring-order"), 2u);
}

TEST(RingOrderRule, FlagsCycleRegression)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    eng.ringDeliver(&dom, 0, "ring0", 0, 5000, 1);
    eng.ringDeliver(&dom, 0, "ring0", 1, 4000, 2); // behind predecessor
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
}

TEST(RingOrderRule, FlagsRingIndexJump)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int dom = 0;
    auto &eng = check::engine();
    eng.ringDoorbell(&dom, 0, "ring0", 0, 1000, 1);
    eng.ringDoorbell(&dom, 0, "ring0", 1, 2000, 3); // avail idx 1 -> 3
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
}

TEST(RingOrderRule, DirectionsAndDomainsTrackIndependently)
{
    ScopedCheckMode scoped(CheckMode::Log);
    int domA = 0, domB = 0;
    auto &eng = check::engine();
    // Doorbell and delivery keep separate sequence state for one ring...
    eng.ringDoorbell(&domA, 0, "ring0", 0, 1000, 1);
    eng.ringDeliver(&domA, 1, "ring0", 0, 1500, 1);
    // ...and the same ring name in a different machine starts fresh.
    eng.ringDoorbell(&domB, 0, "ring0", 0, 800, 1);
    EXPECT_EQ(eng.violationCount("ring-order"), 0u);
}

TEST(RingOrderRule, EnforceModeThrowsOnViolation)
{
    ScopedCheckMode scoped(CheckMode::Enforce);
    int dom = 0;
    auto &eng = check::engine();
    eng.ringDoorbell(&dom, 0, "ring0", 0, 1000, 1);
    EXPECT_THROW(eng.ringDoorbell(&dom, 0, "ring0", 5, 2000, 2), FatalError);
}

TEST(EngineSharding, FacadePropagatesModeToLiveEngines)
{
    // Machine constructed before any ScopedCheckMode (VgicRuleTest
    // pattern): it inherits whatever mode the facade currently carries
    // (Off by default, or the KVMARM_CHECK env selection under the CI
    // enforce leg), and a later facade setMode must reach it.
    ArmMachine machine(smallMachine());
    EXPECT_EQ(machine.checkEngine()->mode(), check::engine().mode());
    {
        ScopedCheckMode scoped(CheckMode::Enforce);
        EXPECT_EQ(machine.checkEngine()->mode(), CheckMode::Enforce);
        EXPECT_THROW(machine.cpu(0).hypSys("vttbr"), FatalError);
    }
    // Scope exit turns every engine back off and clears its log.
    EXPECT_EQ(machine.checkEngine()->mode(), CheckMode::Off);
    EXPECT_EQ(machine.checkEngine()->violationCount(), 0u);
}

// ------------------------------------------------------------------- epoch

TEST(EpochProtocol, MidRunAggregationMatchesPostRunTotals)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    ASSERT_NE(machine.checkEngine(), nullptr);

    constexpr std::uint64_t kViolations = 3;
    std::uint64_t epochId = check::engine().beginEpoch();
    EXPECT_EQ(check::engine().aggregateEpoch().violations, 0u);

    Fleet fleet(2);
    fleet.start();
    std::atomic<bool> committed{false};
    std::atomic<bool> allowPublish{false};
    std::atomic<bool> published{false};
    std::atomic<bool> release{false};
    fleet.submit("violator", [&] {
        for (std::uint64_t i = 0; i < kViolations; ++i)
            machine.checkEngine()->hypAccess(0, Mode::Svc, "hcr");
        committed = true;
        while (!allowPublish)
            std::this_thread::yield();
        machine.publishCheckEpoch(); // the quiesce-boundary publish
        published = true;
        while (!release)
            std::this_thread::yield();
    });

    // Violations recorded but not yet published: invisible to the live
    // sample — aggregation never reads state the machine thread is
    // mutating, which is the whole point of the epoch protocol.
    while (!committed)
        std::this_thread::yield();
    EXPECT_EQ(check::engine().aggregateEpoch().violations, 0u);

    // After the publish the sample sees them — while the job is still
    // occupying a worker, with no stop-the-world anywhere.
    allowPublish = true;
    while (!published)
        std::this_thread::yield();
    check::EpochReport mid = check::engine().aggregateEpoch();
    EXPECT_EQ(mid.epoch, epochId);
    EXPECT_EQ(mid.violations, kViolations);
    release = true;
    fleet.shutdown();

    // Post-run, fully quiesced: the live sample already had the totals.
    EXPECT_EQ(check::engine().aggregateEpoch().violations, kViolations);
    EXPECT_EQ(check::engine().violationCount("privilege"), kViolations);
}

TEST(EpochProtocol, RunExitPublishesAutomatically)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    check::engine().beginEpoch();
    machine.checkEngine()->hypAccess(0, Mode::Svc, "hcr");
    EXPECT_EQ(check::engine().aggregateEpoch().violations, 0u); // live only
    machine.run(); // no CPU entries: returns at once — and publishes
    EXPECT_EQ(check::engine().aggregateEpoch().violations, 1u);
}

TEST(EpochProtocol, RetiredEnginesKeepCounting)
{
    ScopedCheckMode scoped(CheckMode::Log);
    check::engine().beginEpoch();
    {
        ArmMachine machine(smallMachine());
        machine.checkEngine()->hypAccess(0, Mode::Svc, "hcr");
    } // the machine (and its engine) dies with the fleet job
    // A completed VM's violations survive into the epoch sample (the
    // dying engine retires its exact live count)...
    EXPECT_EQ(check::engine().aggregateEpoch().violations, 1u);
    // ...even though exact log aggregation no longer sees the engine.
    EXPECT_EQ(check::engine().violationCount("privilege"), 0u);
}

TEST(EpochProtocol, WindowsRebaselineAndMachineEnginesRejectEpochCalls)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    machine.checkEngine()->hypAccess(0, Mode::Svc, "hcr");
    machine.publishCheckEpoch();

    std::uint64_t e1 = check::engine().beginEpoch();
    std::uint64_t e2 = check::engine().beginEpoch();
    EXPECT_EQ(e2, e1 + 1);
    EXPECT_EQ(check::engine().aggregateEpoch().violations, 0u);

    machine.checkEngine()->hypAccess(0, Mode::Svc, "vttbr");
    machine.publishCheckEpoch();
    check::EpochReport rep = check::engine().aggregateEpoch();
    EXPECT_EQ(rep.epoch, e2);
    EXPECT_EQ(rep.violations, 1u);
    EXPECT_GE(rep.engines, 2u); // at least the facade + this machine

    // Epochs are a facade protocol; machine engines reject them loudly.
    EXPECT_THROW(machine.checkEngine()->beginEpoch(), FatalError);
    EXPECT_THROW(machine.checkEngine()->aggregateEpoch(), FatalError);
}

#endif // KVMARM_INVARIANTS_ENABLED

} // namespace
} // namespace kvmarm
