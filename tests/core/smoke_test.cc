/**
 * @file
 * End-to-end smoke tests: boot the host, initialize KVM/ARM, create a VM
 * and drive it through the fundamental paths — hypercalls, Stage-2 faults,
 * sensitive-instruction emulation, WFI blocking, and state preservation
 * across world switches.
 */

#include <gtest/gtest.h>

#include "core/kvm_stack.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::GpReg;
using arm::Mode;
using core::Kvm;
using core::VCpu;
using core::Vm;

/** Fixture assembling machine + host + KVM on one CPU. */
class KvmSmokeTest : public ::testing::Test
{
  protected:
    /** Boot + KVM init on cpu0, then run @p body there. */
    void
    runOnCpu0(const std::function<void(ArmCpu &)> &body)
    {
        stack.onCpu(0, body);
        stack.machine.run();
    }

    core::KvmStack stack{{.numCpus = 2, .ramSize = 256 * kMiB, .kvm = {}}};
};

/** A minimal guest kernel for smoke testing. */
class StubGuestOs : public arm::OsVectors
{
  public:
    void irq(ArmCpu &cpu) override
    {
        ++irqs;
        // ACK + EOI through the (virtualized) GIC CPU interface.
        std::uint32_t iar = static_cast<std::uint32_t>(
            cpu.memRead(ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        lastIrq = iar & 0x3FF;
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
    }
    void svc(ArmCpu &, std::uint32_t) override { ++syscalls; }
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "stub-guest"; }

    int irqs = 0;
    int syscalls = 0;
    IrqId lastIrq = 0;
};

TEST_F(KvmSmokeTest, HostBootsAndKvmInitializes)
{
    runOnCpu0([&](ArmCpu &cpu) {
        EXPECT_TRUE(stack.kvm.enabled());
        EXPECT_EQ(cpu.mode(), Mode::Svc);
        EXPECT_FALSE(cpu.irqMasked());
        // Hyp stage-1 tables exist and are active.
        EXPECT_TRUE(cpu.hyp().hsctlrM);
        EXPECT_NE(cpu.hyp().httbr, 0u);
    });
}

TEST_F(KvmSmokeTest, KvmDisabledWithoutHypBoot)
{
    host::HostKernel::Config hc;
    hc.bootedInHyp = false;
    host::HostKernel host2(stack.machine, hc);
    Kvm kvm2(host2);
    stack.machine.cpu(0).setEntry([&] {
        host2.boot(0);
        EXPECT_FALSE(kvm2.initCpu(stack.machine.cpu(0)));
        EXPECT_FALSE(kvm2.enabled());
    });
    stack.machine.run();
}

TEST_F(KvmSmokeTest, GuestRunsAndHypercalls)
{
    StubGuestOs guest_os;
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(64 * kMiB);
        VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest_os);

        Cycles before = cpu.now();
        vcpu.run(cpu, [&](ArmCpu &c) {
            EXPECT_EQ(c.mode(), Mode::Svc);
            EXPECT_TRUE(c.hyp().hcr.vm); // Stage-2 on while guest runs
            c.hvc(core::hvc::kTestHypercall);
            c.hvc(core::hvc::kTestHypercall);
        });

        EXPECT_EQ(cpu.mode(), Mode::Svc);
        EXPECT_FALSE(cpu.hyp().hcr.vm); // Stage-2 off back in the host
        EXPECT_GT(cpu.now(), before);
        EXPECT_EQ(vcpu.stats.counterValue("exit.hvc"), 2u);
        // Each hypercall = world switch out + in, plus the run's own pair.
        EXPECT_EQ(vcpu.stats.counterValue("worldswitch.out"), 3u);
        EXPECT_EQ(vcpu.stats.counterValue("worldswitch.in"), 3u);
    });
}

TEST_F(KvmSmokeTest, GuestMemoryFaultsInOnDemand)
{
    StubGuestOs guest_os;
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(64 * kMiB);
        VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest_os);

        vcpu.run(cpu, [&](ArmCpu &c) {
            // Guest MMU off: VA == IPA. Touch three pages.
            c.memWrite(ArmMachine::kRamBase + 0x0000, 0xAB, 4);
            c.memWrite(ArmMachine::kRamBase + 0x5000, 0xCD, 4);
            EXPECT_EQ(c.memRead(ArmMachine::kRamBase + 0x0000, 4), 0xABu);
            EXPECT_EQ(c.memRead(ArmMachine::kRamBase + 0x5000, 4), 0xCDu);
        });

        EXPECT_EQ(vcpu.stats.counterValue("fault.stage2"), 2u);
        EXPECT_EQ(vm->stage2().mappedRamPages(), 2u);
    });
}

TEST_F(KvmSmokeTest, SensitiveInstructionsAreEmulated)
{
    StubGuestOs guest_os;
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(64 * kMiB);
        VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest_os);
        vcpu.shadowActlr = 0x1234;

        vcpu.run(cpu, [&](ArmCpu &c) {
            // ACTLR reads return the VM's shadow, not the hardware value.
            EXPECT_EQ(c.sensitiveOp(arm::SensitiveOp::ActlrRead), 0x1234u);
            // Writes to the read-only shadow are swallowed.
            c.sensitiveOp(arm::SensitiveOp::ActlrWrite, 0xDEAD);
            EXPECT_EQ(c.sensitiveOp(arm::SensitiveOp::ActlrRead), 0x1234u);
            // L2CTLR reports the VM's core count (1), not the host's (2).
            std::uint32_t l2 = c.sensitiveOp(arm::SensitiveOp::L2ctlrRead);
            EXPECT_EQ(l2 >> 24, 0u);
            // CP14 debug state is per-VM shadow state.
            c.sensitiveOp(arm::SensitiveOp::Cp14Write, 0xBEEF);
            EXPECT_EQ(c.sensitiveOp(arm::SensitiveOp::Cp14Read), 0xBEEFu);
        });

        // The hardware ACTLR was never touched by the guest.
        EXPECT_EQ(cpu.actlr, 0x00000041u);
        EXPECT_EQ(vcpu.shadowCp14, 0xBEEFu);
        EXPECT_GE(vcpu.stats.counterValue("exit.cp15"), 4u);
        EXPECT_GE(vcpu.stats.counterValue("exit.cp14"), 2u);
    });
}

TEST_F(KvmSmokeTest, GuestStatePreservedAcrossWorldSwitches)
{
    StubGuestOs guest_os;
    runOnCpu0([&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(64 * kMiB);
        VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest_os);

        // Plant sentinels in the host registers; they must survive the
        // guest residency.
        cpu.regs()[GpReg::R7] = 0x11112222;
        cpu.regs()[arm::CtrlReg::TPIDRPRW] = 0x33334444;

        vcpu.run(cpu, [&](ArmCpu &c) {
            // Guest sets its own values...
            c.regs()[GpReg::R7] = 0x55556666;
            c.writeCp15(arm::CtrlReg::TPIDRPRW, 0x77778888);
            // ...which must survive a trap to the hypervisor.
            c.hvc(core::hvc::kTestHypercall);
            EXPECT_EQ(c.regs()[GpReg::R7], 0x55556666u);
            EXPECT_EQ(c.readCp15(arm::CtrlReg::TPIDRPRW), 0x77778888u);
        });

        // Host state restored.
        EXPECT_EQ(cpu.regs()[GpReg::R7], 0x11112222u);
        EXPECT_EQ(cpu.regs()[arm::CtrlReg::TPIDRPRW], 0x33334444u);
        // Guest state captured in the VCPU context.
        EXPECT_EQ(vcpu.regs[GpReg::R7], 0x55556666u);
        EXPECT_EQ(vcpu.regs[arm::CtrlReg::TPIDRPRW], 0x77778888u);
    });
}

} // namespace
} // namespace kvmarm
