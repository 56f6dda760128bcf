/**
 * @file
 * World switch tests: full-state preservation (property test over random
 * register values), VGIC shadow movement, timer handoff, lazy FPU.
 */

#include <gtest/gtest.h>

#include "core/kvm_stack.hh"
#include "sim/random.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::GpReg;
using arm::Mode;

class NullGuestOs : public arm::OsVectors
{
  public:
    void irq(ArmCpu &) override {}
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "null-guest"; }
};

class WorldSwitchTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    void
    runOnCpu0(const std::function<void(ArmCpu &)> &body)
    {
        stack.onCpu(0, body);
        stack.machine.run();
    }

    core::KvmStack stack{{.numCpus = 1, .ramSize = 128 * kMiB, .kvm = {}}};
    NullGuestOs guestOs;
};

/** Property: for any register values, host and guest state both survive
 *  a residency with multiple switches (seeded sweep). */
TEST_P(WorldSwitchTest, RandomStateSurvivesResidency)
{
    Rng rng(GetParam() * 7919 + 13);
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guestOs);

        // Random host state.
        arm::RegisterFile host_regs;
        for (auto &r : host_regs.gp)
            r = static_cast<std::uint32_t>(rng.next());
        for (auto &r : host_regs.vfp)
            r = rng.next();
        host_regs.ctrl = cpu.regs().ctrl; // keep live MMU state
        cpu.regs().gp = host_regs.gp;
        cpu.regs().vfp = host_regs.vfp;

        // Random guest state, set through the ONE_REG-style interface.
        arm::RegisterFile guest_regs = vcpu.regs;
        for (auto &r : guest_regs.gp)
            r = static_cast<std::uint32_t>(rng.next());
        vcpu.regs.gp = guest_regs.gp;

        // ELR_hyp is legitimately banked by every trap (the hardware
        // writes the preferred return address), so it is excluded from
        // the invariance check.
        auto same_except_elr = [](const auto &a, const auto &b) {
            for (unsigned i = 0; i < arm::kNumGpRegs; ++i) {
                if (i == unsigned(GpReg::ElrHyp))
                    continue;
                if (a[i] != b[i])
                    return false;
            }
            return true;
        };

        vcpu.run(cpu, [&](ArmCpu &c) {
            EXPECT_TRUE(same_except_elr(c.regs().gp, guest_regs.gp));
            c.hvc(core::hvc::kTestHypercall); // extra switch pair
            EXPECT_TRUE(same_except_elr(c.regs().gp, guest_regs.gp));
        });

        EXPECT_TRUE(same_except_elr(cpu.regs().gp, host_regs.gp));
        EXPECT_EQ(cpu.regs().vfp, host_regs.vfp);
        EXPECT_TRUE(same_except_elr(vcpu.regs.gp, guest_regs.gp));
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldSwitchTest,
                         ::testing::Range(0u, 8u));

TEST_F(WorldSwitchTest, TrapConfigurationAppliesOnlyInGuest)
{
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guestOs);

        EXPECT_FALSE(cpu.hyp().hcr.twi);
        vcpu.run(cpu, [&](ArmCpu &c) {
            EXPECT_TRUE(c.hyp().hcr.twi);
            EXPECT_TRUE(c.hyp().hcr.tsc);
            EXPECT_TRUE(c.hyp().hcr.imo);
            EXPECT_TRUE(c.hyp().hcr.vm);
            EXPECT_FALSE(c.hyp().pl1PhysTimerAccess);
        });
        EXPECT_FALSE(cpu.hyp().hcr.twi);
        EXPECT_FALSE(cpu.hyp().hcr.vm);
        EXPECT_TRUE(cpu.hyp().pl1PhysTimerAccess);
    });
}

TEST_F(WorldSwitchTest, GuestModePreservedAcrossExits)
{
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guestOs);
        vcpu.guestIrqMasked = true;

        vcpu.run(cpu, [&](ArmCpu &c) {
            EXPECT_EQ(c.mode(), Mode::Svc);
            EXPECT_TRUE(c.irqMasked());
            c.hvc(core::hvc::kTestHypercall);
            EXPECT_EQ(c.mode(), Mode::Svc);
            EXPECT_TRUE(c.irqMasked());
            c.setIrqMasked(false);
            c.hvc(core::hvc::kTestHypercall);
            EXPECT_FALSE(c.irqMasked());
        });
        EXPECT_FALSE(cpu.irqMasked()); // host was unmasked
    });
}

TEST_F(WorldSwitchTest, LazyFpuPreservesBothFpFiles)
{
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guestOs);
        vcpu.regs.vfp[5] = 0xAAAA5555AAAA5555ull;
        cpu.regs().vfp[5] = 0x1234123412341234ull;

        vcpu.run(cpu, [&](ArmCpu &c) {
            // Until the guest uses FP, the hardware still holds host FP.
            EXPECT_EQ(c.regs().vfp[5], 0x1234123412341234ull);
            EXPECT_EQ(vcpu.stats.counterValue("exit.fp"), 0u);
            c.fpOp(100); // HCPTR trap: lowvisor switches FP in Hyp mode
            EXPECT_EQ(c.regs().vfp[5], 0xAAAA5555AAAA5555ull);
            EXPECT_EQ(vcpu.stats.counterValue("exit.fp"), 1u);
            c.regs().vfp[5] = 0xBBBB0000BBBB0000ull; // guest modifies
            c.fpOp(100); // no second trap
            EXPECT_EQ(vcpu.stats.counterValue("exit.fp"), 1u);
        });
        // Host FP restored; guest's modification captured.
        EXPECT_EQ(cpu.regs().vfp[5], 0x1234123412341234ull);
        EXPECT_EQ(vcpu.regs.vfp[5], 0xBBBB0000BBBB0000ull);
    });
}

TEST_F(WorldSwitchTest, VgicShadowMovesThroughHardware)
{
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guestOs);

        vcpu.run(cpu, [&](ArmCpu &c) {
            // The virtual interface is live while the guest runs.
            EXPECT_TRUE(stack.machine.gich().bank(0).en);
            // Enable the VM view through GICV (the stage-2-mapped GICC).
            c.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
            c.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
            c.hvc(core::hvc::kTestHypercall);
            // Still enabled after the round trip (captured + restored).
            EXPECT_TRUE(stack.machine.gich().bank(0).vmEnabled);
        });
        // Back in the host: the virtual interface is off.
        EXPECT_FALSE(stack.machine.gich().bank(0).en);
        // But the VM's configuration is preserved in the shadow.
        EXPECT_TRUE(vcpu.vgicShadow.vmEnabled);
    });
}

TEST_F(WorldSwitchTest, GuestTimerDoesNotFireForHost)
{
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guestOs);

        vcpu.run(cpu, [&](ArmCpu &c) {
            arm::TimerRegs t;
            t.enable = true;
            t.cval = c.readCntvct() + 1000000;
            c.writeVirtTimer(t);
        });
        // After the switch out the hardware virtual timer is disabled;
        // the guest's programmed deadline lives in the shadow.
        EXPECT_FALSE(stack.machine.timer().virt(0).enable);
        EXPECT_TRUE(vcpu.vtimerShadow.enable);
    });
}

} // namespace
} // namespace kvmarm
