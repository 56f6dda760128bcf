/**
 * @file
 * User-space save/restore + migration tests (paper §4): the ONE_REG-style
 * accessors, full state snapshots, cross-machine restore including
 * virtual-time continuity, and the trap-and-emulate shadow state.
 */

#include <gtest/gtest.h>

#include "core/kvm_stack.hh"
#include "power/energy.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::GpReg;

class NullGuestOs : public arm::OsVectors
{
  public:
    void irq(ArmCpu &) override {}
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "null-guest"; }
};

/** Every migration test's stack: one CPU, 128 MiB. */
const core::KvmStack::Config kOneCpu{
    .numCpus = 1, .ramSize = 128 * kMiB, .kvm = {}};

TEST(Migration, OneRegAccessorsReadAndWriteContext)
{
    core::KvmStack s(kOneCpu);
    NullGuestOs os;
    s.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = s.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&os);

        vcpu.setOneReg(GpReg::R3, 0x33330003);
        vcpu.setOneReg(arm::CtrlReg::TPIDRURO, 0x12121212);
        vcpu.run(cpu, [&](ArmCpu &c) {
            EXPECT_EQ(c.regs()[GpReg::R3], 0x33330003u);
            EXPECT_EQ(c.readCp15(arm::CtrlReg::TPIDRURO), 0x12121212u);
            c.regs()[GpReg::R3] = 0x44440004;
        });
        EXPECT_EQ(vcpu.getOneReg(GpReg::R3), 0x44440004u);
    });
    s.machine.run();
}

TEST(Migration, SnapshotRoundTripsFullState)
{
    core::KvmStack s(kOneCpu);
    NullGuestOs os;
    s.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = s.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&os);
        vcpu.shadowActlr = 0x777;
        vcpu.run(cpu, [&](ArmCpu &c) {
            c.regs()[GpReg::R9] = 0x99;
            c.sensitiveOp(arm::SensitiveOp::Cp14Write, 0xD14);
        });
        core::VcpuState snap = vcpu.saveState(cpu);

        // Clobber, then restore.
        vcpu.regs = arm::RegisterFile{};
        vcpu.shadowCp14 = 0;
        vcpu.restoreState(cpu, snap);
        EXPECT_EQ(vcpu.regs[GpReg::R9], 0x99u);
        EXPECT_EQ(vcpu.shadowCp14, 0xD14u);
        EXPECT_EQ(vcpu.shadowActlr, 0x777u);

        // Snapshot equality is deep.
        EXPECT_EQ(vcpu.saveState(cpu).regs, snap.regs);
    });
    s.machine.run();
}

TEST(Migration, VirtualTimeContinuesOnTargetMachine)
{
    NullGuestOs os;
    core::VcpuState snap;
    std::uint64_t vtime_at_save = 0;

    {
        core::KvmStack a(kOneCpu);
        a.onCpu(0, [&](ArmCpu &cpu) {
            auto vm = a.kvm.createVm(32 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&os);
            vcpu.run(cpu, [&](ArmCpu &c) {
                c.compute(50000);
                vtime_at_save = c.readCntvct();
            });
            snap = vcpu.saveState(cpu);
        });
        a.machine.run();
    }
    {
        core::KvmStack b(kOneCpu);
        b.onCpu(0, [&](ArmCpu &cpu) {
            cpu.compute(999999); // target machine clock is way ahead
            auto vm = b.kvm.createVm(32 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&os);
            vcpu.restoreState(cpu, snap);
            vcpu.run(cpu, [&](ArmCpu &c) {
                std::uint64_t vtime = c.readCntvct();
                EXPECT_GE(vtime, vtime_at_save);
                EXPECT_LT(vtime, vtime_at_save + 50000)
                    << "guest virtual time jumped across migration";
            });
        });
        b.machine.run();
    }
}

TEST(Energy, ModelBehavesLinearly)
{
    power::PowerProfile p = power::arndaleProfile();
    EXPECT_DOUBLE_EQ(power::watts(p, 0.0), p.idleWatts);
    EXPECT_DOUBLE_EQ(power::watts(p, 1.0), p.busyWatts);
    EXPECT_DOUBLE_EQ(power::watts(p, 2.0), p.busyWatts); // clamped
    EXPECT_NEAR(power::energyJoules(p, 10.0, 0.5),
                10.0 * (p.idleWatts + p.busyWatts) / 2, 1e-9);
    EXPECT_LT(power::arndaleProfile().busyWatts,
              power::x86LaptopProfile().idleWatts); // the paper's point
}

} // namespace
} // namespace kvmarm
