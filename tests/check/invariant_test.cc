/**
 * @file
 * Tests for the split-mode invariant checker: each built-in rule is
 * exercised with a deliberately injected violation (proving the rule
 * fires), with the nearest legal behaviour (proving it stays quiet), and
 * the full KVM/ARM stack is driven under Enforce mode to prove the real
 * hypervisor paths are violation-free. The engine's per-hook fan-out is
 * held to naive all-rules dispatch on seeded streams of every event kind.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arm/machine.hh"
#include "arm/vgic.hh"
#include "check/invariants.hh"
#include "check/rules.hh"
#include "core/kvm_stack.hh"
#include "core/stage2_mmu.hh"
#include "host/mm.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

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

    // reset() kept the subscriber lists: the rules still get their events.
    eng.hypAccess(0, Mode::Usr, "httbr");
    eng.worldSwitchBegin(&dom, 0, SwitchDir::ToVm);
    eng.ringDoorbell(&dom, 0, "ring0", 3, 1000, 1);
    EXPECT_EQ(eng.violationCount("privilege"), 1u);
    EXPECT_EQ(eng.violationCount("ws-pairing"), 1u);
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
    EXPECT_EQ(eng.eventCount(), 4u);
}

TEST(InvariantEngine, LogModePrintsTheFirstViolationsThenCounts)
{
    LogEngine eng;
    const std::size_t limit = check::InvariantEngine::kLogPrintedViolations;
    testing::internal::CaptureStderr();
    for (int i = 0; i < 1000; ++i)
        eng.hypAccess(0, Mode::Svc, "hcr"); // a privilege violation each
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(eng.violationCount(), 1000u);
    EXPECT_EQ(eng.violations().size(), 1000u);
    std::istringstream lines(err);
    std::vector<std::string> warned;
    for (std::string line; std::getline(lines, line);)
        warned.push_back(line);
    ASSERT_EQ(warned.size(), limit + 1) << err;
    for (std::size_t i = 0; i < limit; ++i)
        EXPECT_EQ(warned[i].rfind("warn: invariant violation [privilege]", 0),
                  0u)
            << warned[i];
    EXPECT_NE(warned[limit].find("not printed"), std::string::npos)
        << warned[limit];

    // reset() starts a fresh run: its first violation is printed again.
    eng.reset();
    testing::internal::CaptureStderr();
    eng.hypAccess(0, Mode::Svc, "hcr");
    EXPECT_NE(testing::internal::GetCapturedStderr().find("[privilege]"),
              std::string::npos);
}

// ------------------------------------------------------------------ fan-out

/** Counts the state transfers and ring events it is sent. */
class TransferRingCounter : public check::InvariantRule
{
  public:
    const char *name() const override { return "transfer-ring-counter"; }
    void
    onStateTransfer(check::InvariantEngine &,
                    const check::StateTransferEvent &) override
    {
        ++transfers;
    }
    void
    onRing(check::InvariantEngine &, const check::RingEvent &) override
    {
        ++rings;
    }
    int transfers = 0;
    int rings = 0;
};

/** Counts hypervisor-register accesses, then defers to the base no-op. */
class DeferringHypAccessRule : public check::InvariantRule
{
  public:
    const char *name() const override { return "deferring"; }
    void
    onHypAccess(check::InvariantEngine &eng,
                const check::HypAccessEvent &ev) override
    {
        ++calls;
        InvariantRule::onHypAccess(eng, ev);
    }
    int calls = 0;
};

/** One event of every hook kind, on domain @p dom. */
void
sendOneOfEach(check::InvariantEngine &eng, const void *dom,
              std::uint64_t ring_seq)
{
    arm::VgicBank bank;
    bank.en = true;
    bank.uie = true;
    eng.hypAccess(0, Mode::Hyp, "hcr");
    eng.modeChange(dom, 0, Mode::Svc, Mode::Usr, false);
    eng.worldSwitchBegin(dom, 0, SwitchDir::ToHost);
    eng.stateTransfer(dom, 0, StateClass::Gp, Xfer::SaveGuest);
    eng.worldSwitchEnd(dom, 0, SwitchDir::ToHost, arm::HypState{});
    eng.stage2Map(dom, 1, 0x80000000, 0x1000, false);
    eng.stage2Unmap(dom, 1, 0x80000000, 0x1000);
    eng.protectPage(dom, 0x5000, "hyp-table");
    eng.unprotectPage(dom, 0x5000);
    eng.vgicLrWrite(0, 0, bank);
    eng.maintenanceIrq(0, bank);
    eng.ringDoorbell(dom, 0, "ring0", ring_seq, 1000 * (ring_seq + 1),
                     static_cast<std::uint32_t>(ring_seq + 1));
    eng.ringDeliver(dom, 0, "ring0", ring_seq, 1000 * (ring_seq + 1) + 1,
                    static_cast<std::uint32_t>(ring_seq + 1));
}

TEST(CheckFanout, RuleReceivesEveryEventOfItsHooksOnly)
{
    LogEngine eng;
    auto rule = std::make_unique<TransferRingCounter>();
    TransferRingCounter *raw = rule.get();
    eng.addRule(std::move(rule));
    int dom = 0;

    for (std::uint64_t i = 0; i < 5; ++i)
        sendOneOfEach(eng, &dom, i);
    // One transfer and two ring events per round, however often the
    // other hooks ran.
    EXPECT_EQ(raw->transfers, 5);
    EXPECT_EQ(raw->rings, 10);
    EXPECT_EQ(eng.eventCount(), 5u * 13u);
    EXPECT_EQ(eng.violationCount(), 0u);
}

TEST(CheckFanout, BaseHookDropsTheRuleFromThatHookOnly)
{
    LogEngine eng;
    auto rule = std::make_unique<DeferringHypAccessRule>();
    DeferringHypAccessRule *raw = rule.get();
    eng.addRule(std::move(rule));

    eng.hypAccess(0, Mode::Hyp, "hcr");
    eng.hypAccess(0, Mode::Hyp, "hcr");
    eng.hypAccess(0, Mode::Svc, "hcr");
    // Its base no-op ran on the first call: it is off the list...
    EXPECT_EQ(raw->calls, 1);
    // ...while the privilege rule on the same hook still sees every access.
    EXPECT_EQ(eng.violationCount("privilege"), 1u);
}

TEST(CheckFanout, RuleAddedAfterTrafficReceivesEverythingAfter)
{
    LogEngine eng;
    int dom = 0;
    // Traffic on every hook first, so the built-in rules have left the
    // lists of the hooks they do not handle.
    sendOneOfEach(eng, &dom, 0);
    sendOneOfEach(eng, &dom, 1);

    auto rule = std::make_unique<TransferRingCounter>();
    TransferRingCounter *raw = rule.get();
    eng.addRule(std::move(rule));
    sendOneOfEach(eng, &dom, 2);
    sendOneOfEach(eng, &dom, 3);
    EXPECT_EQ(raw->transfers, 2);
    EXPECT_EQ(raw->rings, 4);

    // The built-in rules were re-subscribed and still check: a ring gap
    // and a Svc-mode Hyp access are caught after the addRule().
    eng.ringDoorbell(&dom, 0, "ring0", 9, 99000, 5);
    eng.hypAccess(0, Mode::Svc, "vttbr");
    EXPECT_EQ(raw->rings, 5);
    EXPECT_EQ(eng.violationCount("ring-order"), 1u);
    EXPECT_EQ(eng.violationCount("privilege"), 1u);
}

/**
 * The ws-pairing ledger as it was built on std::set: the reference model
 * the bitmask ledger must match report for report.
 */
class SetLedgerWsPairing : public check::InvariantRule
{
  public:
    const char *name() const override { return "ws-pairing"; }

    void reset() override { epochs_.clear(); }

    void
    onWorldSwitch(check::InvariantEngine &eng,
                  const check::WorldSwitchEvent &ev) override
    {
        Epoch &ep = epochs_[{ev.domain, ev.cpu}];
        if (ev.dir == SwitchDir::ToVm && ev.begin) {
            if (ep.open) {
                eng.report(*this,
                           strfmt("cpu%u: toVm entered twice with no "
                                  "intervening toHost",
                                  ev.cpu));
            }
            ep = Epoch{};
            ep.open = true;
            return;
        }
        if (ev.dir == SwitchDir::ToVm && !ev.begin) {
            require(eng, ev.cpu, ep.savedHost, StateClass::Gp,
                    "host gp registers not saved before guest entry");
            require(eng, ev.cpu, ep.savedHost, StateClass::Ctrl,
                    "host ctrl registers not saved before guest entry");
            require(eng, ev.cpu, ep.restoredGuest, StateClass::Gp,
                    "guest gp registers not restored before guest entry");
            require(eng, ev.cpu, ep.restoredGuest, StateClass::Ctrl,
                    "guest ctrl registers not restored before guest entry");
            return;
        }
        if (ev.dir == SwitchDir::ToHost && !ev.begin && ep.open) {
            diff(eng, ev.cpu, ep.savedHost, ep.restoredHost,
                 "saved for the host in toVm but never restored in toHost");
            diff(eng, ev.cpu, ep.restoredHost, ep.savedHost,
                 "restored for the host in toHost but never saved in toVm");
            diff(eng, ev.cpu, ep.restoredGuest, ep.savedGuest,
                 "loaded for the guest but never saved back on exit");
            diff(eng, ev.cpu, ep.savedGuest, ep.restoredGuest,
                 "saved for the guest on exit but never loaded on entry");
            ep.open = false;
        }
    }

    void
    onStateTransfer(check::InvariantEngine &,
                    const check::StateTransferEvent &ev) override
    {
        auto it = epochs_.find({ev.domain, ev.cpu});
        if (it == epochs_.end() || !it->second.open)
            return;
        Epoch &ep = it->second;
        switch (ev.kind) {
          case Xfer::SaveHost: ep.savedHost.insert(ev.cls); break;
          case Xfer::RestoreGuest: ep.restoredGuest.insert(ev.cls); break;
          case Xfer::SaveGuest: ep.savedGuest.insert(ev.cls); break;
          case Xfer::RestoreHost: ep.restoredHost.insert(ev.cls); break;
        }
    }

  private:
    struct Epoch
    {
        bool open = false;
        std::set<StateClass> savedHost, restoredGuest, savedGuest,
            restoredHost;
    };

    void
    require(check::InvariantEngine &eng, CpuId cpu,
            const std::set<StateClass> &set, StateClass cls,
            const char *what)
    {
        if (!set.count(cls))
            eng.report(*this, strfmt("cpu%u: %s", cpu, what));
    }

    void
    diff(check::InvariantEngine &eng, CpuId cpu,
         const std::set<StateClass> &a, const std::set<StateClass> &b,
         const char *what)
    {
        for (StateClass cls : a) {
            if (!b.count(cls)) {
                eng.report(*this, strfmt("cpu%u: %s state %s", cpu,
                                         check::stateClassName(cls), what));
            }
        }
    }

    std::map<std::pair<const void *, CpuId>, Epoch> epochs_;
};

/**
 * The engine's dispatch before per-hook fan-out: every event to every
 * hook of every rule, in rule order. The rules are a second builtinRules()
 * set with ws-pairing swapped for the std::set model; they report into a
 * Log-mode engine that sees no events of its own.
 */
class NaiveDispatch
{
  public:
    NaiveDispatch()
    {
        for (auto &rule : check::builtinRules()) {
            if (std::string(rule->name()) == "ws-pairing")
                rule = std::make_unique<SetLedgerWsPairing>();
            rules_.push_back(std::move(rule));
        }
    }

    const std::vector<check::Violation> &
    violations() const
    {
        return sink_.violations();
    }
    std::uint64_t eventCount() const { return events_; }

    void
    hypAccess(CpuId cpu, Mode mode, const char *reg)
    {
        all(&check::InvariantRule::onHypAccess,
            check::HypAccessEvent{cpu, mode, reg});
    }
    void
    modeChange(const void *domain, CpuId cpu, Mode from, Mode to,
               bool stage2_on)
    {
        all(&check::InvariantRule::onModeChange,
            check::ModeChangeEvent{domain, cpu, from, to, stage2_on});
    }
    void
    worldSwitchBegin(const void *domain, CpuId cpu, SwitchDir dir)
    {
        all(&check::InvariantRule::onWorldSwitch,
            check::WorldSwitchEvent{domain, cpu, dir, true, nullptr});
    }
    void
    worldSwitchEnd(const void *domain, CpuId cpu, SwitchDir dir,
                   const arm::HypState &hyp)
    {
        all(&check::InvariantRule::onWorldSwitch,
            check::WorldSwitchEvent{domain, cpu, dir, false, &hyp});
    }
    void
    stateTransfer(const void *domain, CpuId cpu, StateClass cls, Xfer kind)
    {
        all(&check::InvariantRule::onStateTransfer,
            check::StateTransferEvent{domain, cpu, cls, kind});
    }
    void
    stage2Map(const void *domain, std::uint16_t vmid, Addr ipa, Addr pa,
              bool device)
    {
        all(&check::InvariantRule::onStage2Update,
            check::Stage2Event{domain, vmid, ipa, pa, device, true});
    }
    void
    stage2Unmap(const void *domain, std::uint16_t vmid, Addr ipa, Addr pa)
    {
        all(&check::InvariantRule::onStage2Update,
            check::Stage2Event{domain, vmid, ipa, pa, false, false});
    }
    void
    protectPage(const void *domain, Addr pa, const char *tag)
    {
        all(&check::InvariantRule::onPageGuard,
            check::PageGuardEvent{domain, pa, tag, true});
    }
    void
    unprotectPage(const void *domain, Addr pa)
    {
        all(&check::InvariantRule::onPageGuard,
            check::PageGuardEvent{domain, pa, "", false});
    }
    void
    vgicLrWrite(CpuId cpu, unsigned idx, const arm::VgicBank &bank)
    {
        all(&check::InvariantRule::onVgicLr,
            check::VgicLrEvent{cpu, idx, &bank});
    }
    void
    maintenanceIrq(CpuId cpu, const arm::VgicBank &bank)
    {
        all(&check::InvariantRule::onMaintenance,
            check::MaintenanceEvent{cpu, &bank});
    }
    void
    ringDoorbell(const void *domain, CpuId cpu, const char *ring,
                 std::uint64_t seq, Cycles cycle, std::uint32_t avail_idx)
    {
        all(&check::InvariantRule::onRing,
            check::RingEvent{domain, cpu, ring, true, seq, cycle, avail_idx});
    }
    void
    ringDeliver(const void *domain, CpuId cpu, const char *ring,
                std::uint64_t seq, Cycles cycle, std::uint32_t used_idx)
    {
        all(&check::InvariantRule::onRing,
            check::RingEvent{domain, cpu, ring, false, seq, cycle, used_idx});
    }

  private:
    template <typename Event>
    void
    all(void (check::InvariantRule::*on)(check::InvariantEngine &,
                                         const Event &),
        const Event &ev)
    {
        ++events_;
        for (auto &rule : rules_)
            ((*rule).*on)(sink_, ev);
    }

    LogEngine sink_;
    std::vector<std::unique_ptr<check::InvariantRule>> rules_;
    std::uint64_t events_ = 0;
};

/** One generated checker event: the arguments of one entry point. */
struct GenEvent
{
    enum Kind
    {
        HypAccess,
        ModeChange,
        SwitchBegin,
        SwitchEnd,
        Transfer,
        Stage2Map,
        Stage2Unmap,
        Protect,
        Unprotect,
        VgicLr,
        Maintenance,
        Doorbell,
        Deliver,
    };

    Kind kind = HypAccess;
    const void *domain = nullptr;
    CpuId cpu = 0;
    Mode mode = Mode::Hyp; //!< access mode / mode-change source
    Mode to = Mode::Svc;
    bool flag = false; //!< stage2On (mode change) / device (map)
    SwitchDir dir = SwitchDir::ToVm;
    StateClass cls = StateClass::Gp;
    Xfer xfer = Xfer::SaveHost;
    std::uint16_t vmid = 0;
    Addr ipa = 0;
    Addr pa = 0;
    const char *name = ""; //!< register, page tag or ring name
    unsigned idx = 0;
    arm::VgicBank bank;
    arm::HypState hyp;
    std::uint64_t seq = 0;
    Cycles cycle = 0;
    std::uint32_t ringIdx = 0;
};

/** Feed @p e to an engine or to the naive reference. */
template <typename Sink>
void
apply(Sink &s, const GenEvent &e)
{
    switch (e.kind) {
      case GenEvent::HypAccess: s.hypAccess(e.cpu, e.mode, e.name); break;
      case GenEvent::ModeChange:
        s.modeChange(e.domain, e.cpu, e.mode, e.to, e.flag);
        break;
      case GenEvent::SwitchBegin:
        s.worldSwitchBegin(e.domain, e.cpu, e.dir);
        break;
      case GenEvent::SwitchEnd:
        s.worldSwitchEnd(e.domain, e.cpu, e.dir, e.hyp);
        break;
      case GenEvent::Transfer:
        s.stateTransfer(e.domain, e.cpu, e.cls, e.xfer);
        break;
      case GenEvent::Stage2Map:
        s.stage2Map(e.domain, e.vmid, e.ipa, e.pa, e.flag);
        break;
      case GenEvent::Stage2Unmap:
        s.stage2Unmap(e.domain, e.vmid, e.ipa, e.pa);
        break;
      case GenEvent::Protect: s.protectPage(e.domain, e.pa, e.name); break;
      case GenEvent::Unprotect: s.unprotectPage(e.domain, e.pa); break;
      case GenEvent::VgicLr: s.vgicLrWrite(e.cpu, e.idx, e.bank); break;
      case GenEvent::Maintenance: s.maintenanceIrq(e.cpu, e.bank); break;
      case GenEvent::Doorbell:
        s.ringDoorbell(e.domain, e.cpu, e.name, e.seq, e.cycle, e.ringIdx);
        break;
      case GenEvent::Deliver:
        s.ringDeliver(e.domain, e.cpu, e.name, e.seq, e.cycle, e.ringIdx);
        break;
    }
}

/**
 * A seeded event stream over 2 domains x 4 CPUs. Each CPU walks the
 * world-switch cycle (toVm, guest, toHost, host) with state transfers in
 * between, but the walk is perturbed: a Table 1 class may be skipped or
 * moved by the wrong kind, a switch may begin twice or end without a
 * begin, and trap bits may be missing. Between steps come Hyp register
 * accesses, Stage-2 (un)maps and page guards over a small page pool,
 * list-register writes and maintenance interrupts over a small virq
 * range, and ring traffic with occasional sequence gaps and replays.
 */
class EventGen
{
  public:
    static constexpr unsigned kDomains = 2;
    static constexpr unsigned kCpus = 4;

    explicit EventGen(std::uint64_t seed) : rng_(seed) {}

    GenEvent
    next()
    {
        GenEvent e;
        const unsigned d = static_cast<unsigned>(rng_.range(kDomains));
        e.domain = &domains_[d];
        e.cpu = static_cast<CpuId>(rng_.range(kCpus));
        switch (rng_.range(10)) {
          case 0: hypAccess(e); break;
          case 1: stage2(e); break;
          case 2: vgic(e); break;
          case 3: ring(e, d); break;
          default: worldSwitchStep(e, walks_[d][e.cpu]); break;
        }
        return e;
    }

  private:
    /** Where one CPU is in its world-switch walk. */
    enum class Phase { Host, Guest, Exiting };

    /** One CPU's walk: its phase, the classes its open epoch moves and
     *  the transfers still to emit. */
    struct CpuWalk
    {
        Phase phase = Phase::Host;
        bool entered = false;
        std::vector<StateClass> moved;
        std::vector<std::pair<StateClass, Xfer>> queue;
    };

    Mode
    anyMode()
    {
        return static_cast<Mode>(rng_.range(8));
    }

    void
    hypAccess(GenEvent &e)
    {
        static const char *const kRegs[] = {"hcr", "vttbr", "httbr", "hsr"};
        e.kind = GenEvent::HypAccess;
        e.mode = rng_.chance(0.9) ? Mode::Hyp : anyMode();
        e.name = kRegs[rng_.range(4)];
    }

    void
    stage2(GenEvent &e)
    {
        static const char *const kTags[] = {"hyp-table", "stage2-table"};
        e.vmid = static_cast<std::uint16_t>(1 + rng_.range(3));
        e.ipa = 0x80000000 + rng_.range(64) * kPageSize;
        e.pa = 0x100000 + rng_.range(24) * kPageSize;
        switch (rng_.range(6)) {
          case 0:
          case 1:
          case 2:
            e.kind = GenEvent::Stage2Map;
            e.flag = rng_.chance(0.1);
            break;
          case 3:
          case 4: e.kind = GenEvent::Stage2Unmap; break;
          default:
            e.kind = rng_.chance(0.5) ? GenEvent::Protect
                                      : GenEvent::Unprotect;
            e.name = kTags[rng_.range(2)];
            break;
        }
    }

    void
    vgic(GenEvent &e)
    {
        e.kind = rng_.chance(0.8) ? GenEvent::VgicLr : GenEvent::Maintenance;
        e.bank.en = rng_.chance(0.9);
        e.bank.uie = rng_.chance(0.9);
        for (arm::ListReg &lr : e.bank.lr) {
            if (rng_.chance(0.6))
                continue; // empty
            lr.virq = static_cast<IrqId>(rng_.chance(0.5) ? rng_.range(4)
                                                          : 32 + rng_.range(8));
            lr.state = arm::LrState::Pending;
            lr.source = static_cast<CpuId>(rng_.range(2));
        }
        e.idx = static_cast<unsigned>(rng_.range(arm::kNumListRegs));
    }

    void
    ring(GenEvent &e, unsigned d)
    {
        const unsigned r = static_cast<unsigned>(rng_.range(2));
        const bool doorbell = rng_.chance(0.5);
        RingDir &st = rings_[d][r][doorbell];
        e.kind = doorbell ? GenEvent::Doorbell : GenEvent::Deliver;
        // Two buffers spell each ring name: state follows the content.
        e.name = ringNames_[r][rng_.range(2)].c_str();
        e.seq = st.seq;
        if (rng_.chance(0.05))
            e.seq = rng_.chance(0.5) ? st.seq + 1 + rng_.range(3)
                                     : st.seq - std::min<std::uint64_t>(
                                                    st.seq, 1);
        st.cycle += rng_.chance(0.05) ? 0 : 1 + rng_.range(500);
        e.cycle = rng_.chance(0.03) ? st.cycle / 2 : st.cycle;
        e.ringIdx = static_cast<std::uint32_t>(e.seq + 1);
        if (rng_.chance(0.03))
            e.ringIdx += 2;
        st.seq = e.seq + 1;
    }

    void
    worldSwitchStep(GenEvent &e, CpuWalk &w)
    {
        if (rng_.chance(0.01)) {
            // A switch edge out of turn: double begin, end without begin.
            e.kind = rng_.chance(0.5) ? GenEvent::SwitchBegin
                                      : GenEvent::SwitchEnd;
            e.dir = rng_.chance(0.5) ? SwitchDir::ToVm : SwitchDir::ToHost;
            e.hyp = e.dir == SwitchDir::ToVm ? guestEntryHypState()
                                             : arm::HypState{};
            return;
        }
        if (!w.queue.empty()) {
            transfer(e, w.queue.front());
            w.queue.erase(w.queue.begin());
            return;
        }
        switch (w.phase) {
          case Phase::Host:
            if (rng_.chance(0.3)) {
                modeChange(e, /*stage2_on=*/rng_.chance(0.02));
                return;
            }
            e.kind = GenEvent::SwitchBegin;
            e.dir = SwitchDir::ToVm;
            // Plan the entry transfers: Table 1's minimal set plus some
            // of the optional classes.
            w.moved = {StateClass::Gp, StateClass::Ctrl};
            for (StateClass c : {StateClass::Vgic, StateClass::Timer}) {
                if (rng_.chance(0.8))
                    w.moved.push_back(c);
            }
            plan(w, Xfer::SaveHost, Xfer::RestoreGuest);
            w.phase = Phase::Guest;
            w.entered = false;
            return;
          case Phase::Guest:
            if (!w.entered) {
                e.kind = GenEvent::SwitchEnd;
                e.dir = SwitchDir::ToVm;
                e.hyp = guestEntryHypState();
                perturbTraps(e.hyp, 0.01);
                w.entered = true;
                return;
            }
            if (rng_.chance(0.4)) {
                modeChange(e, /*stage2_on=*/rng_.chance(0.98));
                return;
            }
            if (rng_.chance(0.2) &&
                std::find(w.moved.begin(), w.moved.end(), StateClass::Fpu) ==
                    w.moved.end()) {
                // Lazy VFP switch through the HCPTR trap.
                w.moved.push_back(StateClass::Fpu);
                transfer(e, {StateClass::Fpu, Xfer::SaveHost});
                w.queue.push_back({StateClass::Fpu, Xfer::RestoreGuest});
                return;
            }
            e.kind = GenEvent::SwitchBegin;
            e.dir = SwitchDir::ToHost;
            plan(w, Xfer::SaveGuest, Xfer::RestoreHost);
            w.phase = Phase::Exiting;
            return;
          case Phase::Exiting:
            e.kind = GenEvent::SwitchEnd;
            e.dir = SwitchDir::ToHost;
            perturbTraps(e.hyp, 0.01);
            w.phase = Phase::Host;
            return;
        }
    }

    /** Queue a @p first and a @p second transfer of every moved class,
     *  each dropped now and then. */
    void
    plan(CpuWalk &w, Xfer first, Xfer second)
    {
        for (StateClass c : w.moved) {
            for (Xfer k : {first, second}) {
                if (!rng_.chance(0.02))
                    w.queue.push_back({c, k});
            }
        }
    }

    /** Transfer @p t, now and then of a random class or kind instead. */
    void
    transfer(GenEvent &e, std::pair<StateClass, Xfer> t)
    {
        e.kind = GenEvent::Transfer;
        e.cls = t.first;
        e.xfer = t.second;
        if (rng_.chance(0.02))
            e.cls = static_cast<StateClass>(
                rng_.range(check::kNumStateClasses));
        if (rng_.chance(0.02))
            e.xfer = static_cast<Xfer>(rng_.range(check::kNumXfers));
    }

    void
    modeChange(GenEvent &e, bool stage2_on)
    {
        e.kind = GenEvent::ModeChange;
        e.mode = Mode::Hyp;
        e.to = rng_.chance(0.8) ? (rng_.chance(0.5) ? Mode::Svc : Mode::Usr)
                                : anyMode();
        e.flag = stage2_on;
    }

    /** Flip each HCR trap bit and the Stage-2 enable with chance @p p. */
    void
    perturbTraps(arm::HypState &h, double p)
    {
        for (bool *bit : {&h.hcr.vm, &h.hcr.imo, &h.hcr.fmo, &h.hcr.twi,
                          &h.hcr.twe, &h.hcr.tsc, &h.hcr.tac, &h.hcr.swio,
                          &h.hcr.tidcp}) {
            if (rng_.chance(p))
                *bit = !*bit;
        }
        if (rng_.chance(p))
            h.vttbr = 0;
    }

    struct RingDir
    {
        std::uint64_t seq = 0;
        Cycles cycle = 0;
    };

    Rng rng_;
    int domains_[kDomains] = {};
    CpuWalk walks_[kDomains][kCpus];
    RingDir rings_[kDomains][2][2];
    const std::string ringNames_[2][2] = {{"net0", "net0"},
                                          {"net1", "net1"}};
};

/**
 * Per-hook fan-out, the bitmask ledger and the flat per-CPU tables change
 * no report: a seeded stream of every event kind gives an engine exactly
 * the violations (rule, text and order) and the event count of naive
 * all-rules dispatch over the std::set ledger.
 */
TEST(CheckFanout, SeededEventsMatchNaiveDispatch)
{
    constexpr int kEvents = 4000;
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EventGen gen(seed);
        LogEngine eng;
        NaiveDispatch ref;
        for (int i = 0; i < kEvents; ++i) {
            const GenEvent e = gen.next();
            apply(eng, e);
            apply(ref, e);
            ASSERT_EQ(eng.violations().size(), ref.violations().size())
                << "after event " << i << " (kind " << e.kind << ")";
        }
        EXPECT_EQ(eng.eventCount(), ref.eventCount());
        const auto &got = eng.violations();
        const auto &want = ref.violations();
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].rule, want[i].rule) << "violation " << i;
            ASSERT_EQ(got[i].detail, want[i].detail) << "violation " << i;
        }
        // Every rule fired, and far from every event is a violation.
        for (const char *rule : {"privilege", "ws-pairing",
                                 "stage2-isolation", "trap-config", "vgic",
                                 "ring-order"})
            EXPECT_GT(eng.violationCount(rule), 0u) << rule;
        EXPECT_LT(eng.violationCount(), std::size_t(kEvents / 4));
    }
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

TEST(RingOrderRule, EqualNamesFromDistinctBuffersShareState)
{
    LogEngine eng;
    int dom = 0;
    char first[] = "ring0";
    const char second[] = "ring0";
    eng.ringDoorbell(&dom, 0, first, 0, 1000, 1);
    eng.ringDoorbell(&dom, 0, second, 1, 2000, 2); // continues ring0
    EXPECT_EQ(eng.violationCount("ring-order"), 0u);

    // State follows the name, not the buffer: rewritten to another name,
    // the first buffer starts a fresh stream, and ring0 goes on at seq 2.
    std::memcpy(first, "ring1", sizeof first);
    eng.ringDoorbell(&dom, 0, first, 0, 3000, 1);
    eng.ringDoorbell(&dom, 0, second, 2, 4000, 3);
    EXPECT_EQ(eng.violationCount("ring-order"), 0u);
    eng.ringDoorbell(&dom, 0, first, 2, 5000, 3); // ring1 skipped seq 1
    EXPECT_EQ(eng.violationCount("ring-order"), 2u); // seq gap + index jump
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
