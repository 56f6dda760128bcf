/**
 * @file
 * KvmStack tests: the builder reproduces the hand-built machine -> host ->
 * KVM bring-up exactly (same snapshot records), makes the VGIC/vtimer
 * choice once for both the hardware and KVM, and leaves the lowvisor
 * installed as the Hyp vectors on every CPU it initialized.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/kvm_stack.hh"
#include "sim/logging.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

class NullGuestOs : public arm::OsVectors
{
  public:
    void irq(ArmCpu &) override {}
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "null-guest"; }
};

/** Guest body shared by both stacks: Stage-2 faults, hypercalls, MMIO. */
void
exercise(ArmCpu &c)
{
    for (Addr off = 0; off < 16 * kPageSize; off += kPageSize)
        c.memWrite(ArmMachine::kRamBase + off, off + 1, 4);
    for (unsigned i = 0; i < 8; ++i)
        c.hvc(core::hvc::kTestHypercall);
    c.sensitiveOp(arm::SensitiveOp::ActlrRead);
}

void
expectSameRecords(const MachineSnapshot &a, const MachineSnapshot &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        SCOPED_TRACE("record " + a.records[i].key);
        EXPECT_EQ(a.records[i].key, b.records[i].key);
        EXPECT_EQ(a.records[i].bytes, b.records[i].bytes);
    }
}

TEST(KvmStack, SnapshotMatchesTheHandBuiltStack)
{
    NullGuestOs os;

    // The reference: the bring-up written out by hand.
    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 64 * kMiB;
    ArmMachine machine(mc);
    host::HostKernel hostk(machine);
    core::Kvm kvm(hostk, core::KvmConfig{});
    std::unique_ptr<core::Vm> hand_vm;
    machine.cpu(0).setEntry([&] {
        ArmCpu &cpu = machine.cpu(0);
        hostk.boot(0);
        ASSERT_TRUE(kvm.initCpu(cpu));
        hand_vm = kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = hand_vm->addVcpu(0);
        vcpu.setGuestOs(&os);
        vcpu.run(cpu, exercise);
    });
    machine.run();

    core::KvmStack stack({.numCpus = 1, .ramSize = 64 * kMiB, .kvm = {}});
    std::unique_ptr<core::Vm> stack_vm;
    stack.onCpu(0, [&](ArmCpu &cpu) {
        stack_vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = stack_vm->addVcpu(0);
        vcpu.setGuestOs(&os);
        vcpu.run(cpu, exercise);
    });
    stack.machine.run();

    ASSERT_TRUE(hand_vm && stack_vm);
    EXPECT_EQ(stack.machine.cpu(0).now(), machine.cpu(0).now());
    expectSameRecords(*machine.takeSnapshot(), *stack.machine.takeSnapshot());
}

TEST(KvmStack, HardwareMatchesTheKvmChoice)
{
    for (bool vgic : {false, true}) {
        for (bool vtimers : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "useVgic=" << vgic << " useVtimers=" << vtimers);
            core::KvmConfig kc;
            kc.useVgic = vgic;
            kc.useVtimers = vtimers;
            core::KvmStack stack(
                {.numCpus = 1, .ramSize = 16 * kMiB, .kvm = kc});
            EXPECT_EQ(stack.machine.config().hwVgic,
                      stack.kvm.config().useVgic);
            EXPECT_EQ(stack.machine.config().hwVtimers,
                      stack.kvm.config().useVtimers);
            EXPECT_EQ(stack.kvm.config().useVgic, vgic);
            EXPECT_EQ(stack.kvm.config().useVtimers, vtimers);
        }
    }
}

TEST(KvmStack, OnCpuInstallsTheLowvisorOnEachCpu)
{
    core::KvmStack stack({.numCpus = 2, .ramSize = 64 * kMiB, .kvm = {}});
    bool ran[2] = {false, false};
    for (CpuId i = 0; i < 2; ++i) {
        stack.onCpu(i, [&, i](ArmCpu &cpu) {
            EXPECT_EQ(cpu.id(), i);
            EXPECT_EQ(cpu.hypVectors(), &stack.kvm.lowvisor());
            ran[i] = true;
        });
    }
    stack.machine.run();

    EXPECT_TRUE(ran[0]);
    EXPECT_TRUE(ran[1]);
    EXPECT_TRUE(stack.kvm.enabled());
    for (CpuId i = 0; i < 2; ++i)
        EXPECT_EQ(stack.machine.cpu(i).hypVectors(), &stack.kvm.lowvisor());
}

TEST(KvmStack, FatalInCpuEntryThrowsFromRun)
{
    // A fatal() inside a CPU's entry (here createVm before KVM's per-CPU
    // init) reaches the caller of machine.run() as a FatalError, with the
    // machine left stopped and snapshottable.
    core::KvmStack stack({.numCpus = 1, .ramSize = 64 * kMiB, .kvm = {}});
    bool created = false;
    stack.machine.cpu(0).setEntry([&] {
        stack.host.boot(0);
        auto vm = stack.kvm.createVm(16 * kMiB);
        created = true;
    });
    try {
        stack.machine.run();
        ADD_FAILURE() << "run() did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("before successful initCpu"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(created);
    EXPECT_TRUE(stack.machine.finished());
    EXPECT_FALSE(stack.kvm.enabled());
    EXPECT_NE(stack.machine.takeSnapshot(), nullptr);
}

} // namespace
} // namespace kvmarm
