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
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm_stack.hh"
#include "core/stage2_mmu.hh"
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

ArmMachine::Config
smallMachine()
{
    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 64 * kMiB;
    return mc;
}

/** A standalone engine in Log mode, for event-level rule tests. */
struct LogEngine : check::InvariantEngine
{
    LogEngine() { setMode(CheckMode::Log); }
};

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
    EXPECT_EQ(machine.checkEngine()->violationCount("privilege"), 1u);

    // The same access from Hyp mode is legal.
    cpu.setMode(Mode::Hyp);
    cpu.hypSys("hcr");
    cpu.setMode(Mode::Svc);
    EXPECT_EQ(machine.checkEngine()->violationCount("privilege"), 1u);
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
    EXPECT_EQ(machine.checkEngine()->violationCount(), 0u);
    EXPECT_EQ(machine.checkEngine()->eventCount(), 0u);
}

// --------------------------------------------------------------- ws-pairing

/** Drive the pairing ledger through one switch cycle at the event level. */
class WsPairingTest : public ::testing::Test
{
  protected:
    void
    enterGuest(bool with_fpu = false)
    {
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

    LogEngine eng;
    int dom = 0; //!< stand-in domain token
};

TEST_F(WsPairingTest, CompleteSwitchCycleIsClean)
{
    enterGuest();
    exitGuest(true);
    EXPECT_EQ(eng.violationCount("ws-pairing"), 0u);
}

TEST_F(WsPairingTest, FlagsSkippedHostRestore)
{
    enterGuest();
    exitGuest(false); // ctrl registers saved in toVm but never restored
    EXPECT_EQ(eng.violationCount("ws-pairing"), 1u);
}

TEST_F(WsPairingTest, FlagsGuestEntryWithoutHostSave)
{
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    // Only GP moved; ctrl registers were never saved or loaded.
    eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::SaveHost);
    eng.stateTransfer(&dom, 0, StateClass::Gp, Xfer::RestoreGuest);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, guestEntryHypState());
    EXPECT_EQ(eng.violationCount("ws-pairing"), 2u);
}

TEST_F(WsPairingTest, LazyFpuTransferJoinsTheOpenEpoch)
{
    enterGuest();
    // Guest touches VFP mid-run: the deferred switch happens via the
    // HCPTR trap while the epoch is open.
    eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::SaveHost);
    eng.stateTransfer(&dom, 0, StateClass::Fpu, Xfer::RestoreGuest);
    exitGuest(true, /*with_fpu=*/true);
    EXPECT_EQ(eng.violationCount("ws-pairing"), 0u);
}

TEST_F(WsPairingTest, FlagsLazyFpuLoadedButNeverSavedBack)
{
    enterGuest(/*with_fpu=*/true);
    exitGuest(true, /*with_fpu=*/false); // guest VFP state dropped
    // Two asymmetries: host VFP saved but never restored, and guest VFP
    // loaded but never captured back.
    EXPECT_EQ(eng.violationCount("ws-pairing"), 2u);
}

// ---------------------------------------------------------- stage2-isolation

TEST(Stage2IsolationRule, FlagsCrossVmPhysicalPage)
{
    LogEngine eng;
    int mm = 0;
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
    LogEngine eng;
    int mm = 0;
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
    host::Mm mm(machine.ram(), &machine);
    core::Stage2Mmu vm_a(mm, 1, ArmMachine::kRamBase, 16 * kMiB);
    core::Stage2Mmu vm_b(mm, 2, ArmMachine::kRamBase, 16 * kMiB);

    ASSERT_TRUE(vm_a.handleRamFault(ArmMachine::kRamBase + 0x1000));
    Addr stolen = *vm_a.ipaToPa(ArmMachine::kRamBase + 0x1000);
    EXPECT_EQ(machine.checkEngine()->violationCount("stage2-isolation"), 0u);

    vm_b.mapDevicePage(ArmMachine::kGicvBase, stolen);
    EXPECT_EQ(machine.checkEngine()->violationCount("stage2-isolation"), 1u);
}

TEST(Stage2IsolationRule, SharedDeviceInterfaceIsLegal)
{
    // Both VMs map the GICV hardware interface: device pages have no
    // single RAM owner and are legitimately shared (paper §3.5).
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    host::Mm mm(machine.ram(), &machine);
    core::Stage2Mmu vm_a(mm, 1, ArmMachine::kRamBase, 16 * kMiB);
    core::Stage2Mmu vm_b(mm, 2, ArmMachine::kRamBase, 16 * kMiB);
    vm_a.mapDevicePage(ArmMachine::kGiccBase, ArmMachine::kGicvBase);
    vm_b.mapDevicePage(ArmMachine::kGiccBase, ArmMachine::kGicvBase);
    EXPECT_EQ(machine.checkEngine()->violationCount("stage2-isolation"), 0u);
}

// -------------------------------------------------------------- trap-config

TEST(TrapConfigRule, CleanGuestEntryPasses)
{
    LogEngine eng;
    int dom = 0;
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, guestEntryHypState());
    EXPECT_EQ(eng.violationCount("trap-config"), 0u);
}

TEST(TrapConfigRule, FlagsMissingTrapBitsAtGuestEntry)
{
    LogEngine eng;
    int dom = 0;
    arm::HypState h = guestEntryHypState();
    h.hcr.tsc = false;  // SMC would reach the guest unmediated
    h.hcr.twi = false;  // WFI would idle the physical CPU
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToVm, h);
    EXPECT_EQ(eng.violationCount("trap-config"), 2u);
}

TEST(TrapConfigRule, FlagsGuestEntryWithoutStage2)
{
    LogEngine eng;
    int dom = 0;
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
    LogEngine eng;
    int dom = 0;
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToHost);
    // Stage-2 and the trap set were left enabled: the host would run
    // under the guest's translation regime.
    eng.worldSwitchEnd(&dom, 0, SwitchDir::ToHost, guestEntryHypState());
    EXPECT_EQ(eng.violationCount("trap-config"), 2u);
}

TEST(TrapConfigRule, FlagsKernelModeWithWrongStage2State)
{
    LogEngine eng;
    int dom = 0;
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
    EXPECT_EQ(machine.checkEngine()->violationCount("vgic"), 0u);
    writeLr(1, 40, arm::LrState::Pending); // same SPI queued twice
    EXPECT_EQ(machine.checkEngine()->violationCount("vgic"), 1u);
}

TEST_F(VgicRuleTest, SgisFromDistinctSourcesMayCoexist)
{
    ScopedCheckMode scoped(CheckMode::Log);
    writeLr(0, 5, arm::LrState::Pending, /*source=*/0);
    writeLr(1, 5, arm::LrState::Pending, /*source=*/1);
    EXPECT_EQ(machine.checkEngine()->violationCount("vgic"), 0u);
    writeLr(2, 5, arm::LrState::Pending, /*source=*/1); // same source twice
    EXPECT_EQ(machine.checkEngine()->violationCount("vgic"), 1u);
}

TEST_F(VgicRuleTest, FlagsMaintenanceIrqWithoutUnderflow)
{
    ScopedCheckMode scoped(CheckMode::Log);
    check::InvariantEngine &eng = *machine.checkEngine();

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

    core::KvmStack stack({.numCpus = 2, .ramSize = 64 * kMiB, .kvm = {}});
    ProbeGuestOs guest_os;

    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
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
    stack.machine.run();

    EXPECT_EQ(stack.machine.checkEngine()->violationCount(), 0u);
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
    core::KvmStack stack({.numCpus = 1, .ramSize = 64 * kMiB, .kvm = {}});
    std::unique_ptr<core::Vm> vm;
    core::VCpu *vcpu = nullptr;
    StormRun run;

    stack.onCpu(0, [&](ArmCpu &cpu) {
        vm = stack.kvm.createVm(32 * kMiB);
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
    stack.machine.run();

    std::ostringstream os;
    stack.machine.cpu(0).stats().dump(os, "cpu0.");
    if (vcpu)
        vcpu->stats.dump(os, "vcpu.");
    run.statDump = os.str();
    if (check::InvariantEngine *eng = stack.machine.checkEngine())
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

    LogEngine eng;
    auto rule = std::make_unique<CountingRule>();
    CountingRule *raw = rule.get();
    eng.addRule(std::move(rule));

    eng.hypAccess(0, Mode::Hyp, "hcr");
    eng.hypAccess(0, Mode::Svc, "hcr");
    EXPECT_EQ(raw->events, 2);
    // The built-in privilege rule saw the second access too.
    EXPECT_EQ(eng.violationCount("privilege"), 1u);
}

TEST(InvariantEngine, ResetClearsViolationsAndShadowState)
{
    LogEngine eng;
    int dom = 0;
    eng.hypAccess(0, Mode::Svc, "hcr");
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm); // opens a ws epoch
    EXPECT_EQ(eng.violationCount(), 1u);
    EXPECT_EQ(eng.eventCount(), 2u);

    eng.reset();
    EXPECT_EQ(eng.violationCount(), 0u);
    EXPECT_EQ(eng.eventCount(), 0u);
    // The ws-pairing ledger was cleared too: a fresh toVm is not flagged
    // as entering twice.
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    EXPECT_EQ(eng.violationCount(), 0u);
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

    // Machines created inside the scope started in its mode.
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
    LogEngine eng;
    int dom = 0;
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
    LogEngine eng;
    int dom = 0;
    eng.ringDoorbell(&dom, 0, "ring0", 0, 1000, 1);
    eng.ringDoorbell(&dom, 0, "ring0", 2, 2000, 2); // skipped seq 1
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
    eng.ringDoorbell(&dom, 0, "ring0", 2, 3000, 3); // replayed seq 2
    EXPECT_EQ(eng.violationCount("ring-order"), 2u);
}

TEST(RingOrderRule, FlagsCycleRegression)
{
    LogEngine eng;
    int dom = 0;
    eng.ringDeliver(&dom, 0, "ring0", 0, 5000, 1);
    eng.ringDeliver(&dom, 0, "ring0", 1, 4000, 2); // behind predecessor
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
}

TEST(RingOrderRule, FlagsRingIndexJump)
{
    LogEngine eng;
    int dom = 0;
    eng.ringDoorbell(&dom, 0, "ring0", 0, 1000, 1);
    eng.ringDoorbell(&dom, 0, "ring0", 1, 2000, 3); // avail idx 1 -> 3
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
}

TEST(RingOrderRule, DirectionsAndDomainsTrackIndependently)
{
    LogEngine eng;
    int domA = 0, domB = 0;
    // Doorbell and delivery keep separate sequence state for one ring...
    eng.ringDoorbell(&domA, 0, "ring0", 0, 1000, 1);
    eng.ringDeliver(&domA, 1, "ring0", 0, 1500, 1);
    // ...and the same ring name in a different machine starts fresh.
    eng.ringDoorbell(&domB, 0, "ring0", 0, 800, 1);
    EXPECT_EQ(eng.violationCount("ring-order"), 0u);
}

TEST(RingOrderRule, EnforceModeThrowsOnViolation)
{
    check::InvariantEngine eng;
    eng.setMode(CheckMode::Enforce);
    int dom = 0;
    eng.ringDoorbell(&dom, 0, "ring0", 0, 1000, 1);
    EXPECT_THROW(eng.ringDoorbell(&dom, 0, "ring0", 5, 2000, 2), FatalError);
}

TEST(EngineSharding, ProcessModeReachesLiveEngines)
{
    // Machine constructed before any ScopedCheckMode (VgicRuleTest
    // pattern): it starts in whatever the process mode currently is (Off
    // by default, or the KVMARM_CHECK env selection under the CI enforce
    // leg), and a later process mode change must reach it.
    ArmMachine machine(smallMachine());
    EXPECT_EQ(machine.checkEngine()->mode(), check::processMode());
    {
        ScopedCheckMode scoped(CheckMode::Enforce);
        EXPECT_EQ(machine.checkEngine()->mode(), CheckMode::Enforce);
        EXPECT_THROW(machine.cpu(0).hypSys("vttbr"), FatalError);
    }
    // Scope exit turns every engine back off and clears its log.
    EXPECT_EQ(machine.checkEngine()->mode(), CheckMode::Off);
    EXPECT_EQ(machine.checkEngine()->violationCount(), 0u);
}

/**
 * An engine constructed while another thread changes the process mode
 * must end up in the process mode, not in the one it read before the
 * fan-out passed it by. Workers churn engines while the main thread flips
 * a ScopedCheckMode between Enforce and Off; once they stop, every engine
 * still alive must carry the process mode.
 */
TEST(EngineSharding, EngineBornDuringModeChangeStartsInTheProcessMode)
{
    constexpr unsigned kWorkers = 4;
    constexpr std::size_t kKeep = 8; // live engines per worker
    constexpr int kRounds = 50;

    std::vector<std::vector<std::unique_ptr<check::InvariantEngine>>> live(
        kWorkers);
    auto churnAcross = [&](const auto &flip) {
        std::atomic<bool> stop{false};
        std::atomic<unsigned> running{0};
        std::vector<std::thread> workers;
        for (unsigned w = 0; w < kWorkers; ++w) {
            workers.emplace_back([&, w] {
                auto &mine = live[w];
                mine.clear();
                bool counted = false;
                while (!stop.load(std::memory_order_relaxed)) {
                    if (mine.size() == kKeep)
                        mine.erase(mine.begin());
                    mine.push_back(
                        std::make_unique<check::InvariantEngine>());
                    if (!counted) {
                        running.fetch_add(1);
                        counted = true;
                    }
                }
            });
        }
        while (running.load() < kWorkers)
            std::this_thread::yield();
        flip();
        stop = true;
        for (std::thread &t : workers)
            t.join();

        const CheckMode want = check::processMode();
        for (const auto &mine : live) {
            for (const auto &eng : mine) {
                ASSERT_EQ(eng->mode(), want);
                ASSERT_EQ(eng->active(), want != CheckMode::Off);
            }
        }
    };

    for (int r = 0; r < kRounds; ++r) {
        std::optional<ScopedCheckMode> scoped;
        churnAcross([&] { scoped.emplace(CheckMode::Enforce); });
        churnAcross([&] { scoped.reset(); });
    }
    live.clear();
}

// ------------------------------------------------------------------- epoch

TEST(EpochProtocol, MidRunAggregationMatchesPostRunTotals)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    ASSERT_NE(machine.checkEngine(), nullptr);

    constexpr std::uint64_t kViolations = 3;
    std::uint64_t epochId = check::beginEpoch();
    EXPECT_EQ(check::aggregateEpoch().violations, 0u);

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
    EXPECT_EQ(check::aggregateEpoch().violations, 0u);

    // After the publish the sample sees them — while the job is still
    // occupying a worker, with no stop-the-world anywhere.
    allowPublish = true;
    while (!published)
        std::this_thread::yield();
    check::EpochReport mid = check::aggregateEpoch();
    EXPECT_EQ(mid.epoch, epochId);
    EXPECT_EQ(mid.violations, kViolations);
    release = true;
    fleet.shutdown();

    // Post-run, fully quiesced: the live sample already had the totals.
    EXPECT_EQ(check::aggregateEpoch().violations, kViolations);
    EXPECT_EQ(machine.checkEngine()->violationCount("privilege"),
              kViolations);
}

TEST(EpochProtocol, RunExitPublishesAutomatically)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    check::beginEpoch();
    machine.checkEngine()->hypAccess(0, Mode::Svc, "hcr");
    EXPECT_EQ(check::aggregateEpoch().violations, 0u); // live only
    machine.run(); // no CPU entries: returns at once — and publishes
    EXPECT_EQ(check::aggregateEpoch().violations, 1u);
}

TEST(EpochProtocol, RetiredEnginesKeepCounting)
{
    ScopedCheckMode scoped(CheckMode::Log);
    check::beginEpoch();
    {
        ArmMachine machine(smallMachine());
        machine.checkEngine()->hypAccess(0, Mode::Svc, "hcr");
    } // the machine (and its engine) dies with the fleet job
    // A completed VM's violations survive into the epoch sample: the
    // dying engine retires its exact live count.
    EXPECT_EQ(check::aggregateEpoch().violations, 1u);
}

TEST(EpochProtocol, WindowsRebaseline)
{
    ScopedCheckMode scoped(CheckMode::Log);
    ArmMachine machine(smallMachine());
    machine.checkEngine()->hypAccess(0, Mode::Svc, "hcr");
    machine.publishCheckEpoch();

    std::uint64_t e1 = check::beginEpoch();
    std::uint64_t e2 = check::beginEpoch();
    EXPECT_EQ(e2, e1 + 1);
    EXPECT_EQ(check::aggregateEpoch().violations, 0u);

    machine.checkEngine()->hypAccess(0, Mode::Svc, "vttbr");
    machine.publishCheckEpoch();
    check::EpochReport rep = check::aggregateEpoch();
    EXPECT_EQ(rep.epoch, e2);
    EXPECT_EQ(rep.violations, 1u);
    EXPECT_EQ(rep.engines, 1u); // this machine's, the only one alive
}

} // namespace
} // namespace kvmarm
