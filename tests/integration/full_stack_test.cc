/**
 * @file
 * Integration tests across all modules: an SMP guest with devices, timers
 * and IPIs running end to end; two VMs timesharing... a machine; VCPU
 * migration between machines; and the no-VGIC configuration running the
 * same full stack.
 */

#include <gtest/gtest.h>

#include "core/kvm_stack.hh"
#include "vdev/qemu.hh"
#include "workload/arm_port.hh"
#include "workload/linux_model.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

TEST(Integration, SmpGuestWithDevicesTimersAndIpis)
{
    core::KvmStack stack({.numCpus = 2, .ramSize = 768 * kMiB, .kvm = {}});

    std::unique_ptr<core::Vm> vm;
    std::unique_ptr<vdev::QemuArm> qemu;
    wl::ArmOsImage image;
    image.ramSize = 128 * kMiB;
    wl::ArmLinuxPort port0(stack.machine.cpu(0), image, 0);
    wl::ArmLinuxPort port1(stack.machine.cpu(1), image, 1);
    bool ready = false, done = false;

    stack.onCpu(0, [&](ArmCpu &cpu) {
        vm = stack.kvm.createVm(256 * kMiB);
        core::VCpu &vcpu0 = vm->addVcpu(0);
        vm->addVcpu(1);
        qemu = std::make_unique<vdev::QemuArm>(stack.kvm, *vm);
        qemu->addDevice(0, vdev::usbEthProfile());
        qemu->addDevice(1, vdev::ssdProfile());
        vcpu0.setGuestOs(&port0);
        ready = true;

        vcpu0.run(cpu, [&](ArmCpu &c) {
            port0.boot();
            // Demand paging with real guest page tables.
            for (int i = 0; i < 20; ++i)
                port0.demandFault();
            // A timer tick.
            int ticks_before = static_cast<int>(port0.timerIrqsReceived());
            port0.timerProgram(30000);
            port0.idle();
            EXPECT_GT(static_cast<int>(port0.timerIrqsReceived()),
                      ticks_before);
            // Device I/O through QEMU and back via KVM_IRQ_LINE.
            port0.devKick(0, 1500);
            while (port0.devCompletions(0) < 1)
                port0.idle();
            port0.devKick(1, 4096);
            while (port0.devCompletions(1) < 1)
                port0.idle();
            // Cross-VCPU IPI.
            std::uint64_t peer_ipis = port1.ipisReceived();
            port0.sendRescheduleIpi(1);
            while (port1.ipisReceived() == peer_ipis)
                c.compute(300);
            done = true;
        });
    });
    stack.onCpu(1, [&](ArmCpu &cpu) {
        while (!ready || vm->vcpus().size() < 2)
            cpu.compute(400);
        core::VCpu &vcpu1 = *vm->vcpus()[1];
        vcpu1.setGuestOs(&port1);
        vcpu1.run(cpu, [&](ArmCpu &c) {
            port1.boot();
            while (!done)
                c.compute(250);
        });
    });
    stack.machine.run();

    EXPECT_TRUE(done);
    EXPECT_GE(vm->vcpus()[0]->stats.counterValue("fault.stage2"), 15u);
    EXPECT_GE(vm->vcpus()[0]->stats.counterValue("mmio.user"), 2u);
}

TEST(Integration, SameGuestCodeRunsNativeAndVirtualized)
{
    // The miniature Linux runs unmodified in both environments — the
    // "runs unmodified guest operating systems" property.
    auto run_native = [] {
        ArmMachine machine(ArmMachine::Config{
            .numCpus = 1, .ramSize = 512 * kMiB, .hwVgic = true,
            .hwVtimers = true, .clockHz = 1.7e9, .cost = {}});
        wl::ArmOsImage image;
        image.ramSize = 128 * kMiB;
        wl::ArmLinuxPort port(machine.cpu(0), image, 0);
        std::uint64_t checks = 0;
        machine.cpu(0).setEntry([&] {
            port.boot();
            wl::LmbenchOps ops(port);
            ops.run(wl::LmWorkload::PageFault, 30);
            ops.run(wl::LmWorkload::ProtFault, 10);
            checks = port.timerIrqsReceived() + 1;
        });
        machine.run();
        return checks;
    };
    auto run_virt = [] {
        core::KvmStack stack({.numCpus = 1, .ramSize = 768 * kMiB, .kvm = {}});
        wl::ArmOsImage image;
        image.ramSize = 128 * kMiB;
        wl::ArmLinuxPort port(stack.machine.cpu(0), image, 0);
        std::uint64_t checks = 0;
        stack.onCpu(0, [&](ArmCpu &cpu) {
            auto vm = stack.kvm.createVm(256 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&port);
            vcpu.run(cpu, [&](ArmCpu &) {
                port.boot();
                wl::LmbenchOps ops(port);
                ops.run(wl::LmWorkload::PageFault, 30);
                ops.run(wl::LmWorkload::ProtFault, 10);
                checks = port.timerIrqsReceived() + 1;
            });
        });
        stack.machine.run();
        return checks;
    };
    EXPECT_EQ(run_native(), run_virt());
}

TEST(Integration, TwoVmsTimeshareOneCpu)
{
    core::KvmStack stack({.numCpus = 1, .ramSize = 512 * kMiB, .kvm = {}});

    class MarkGuest : public arm::OsVectors
    {
      public:
        void irq(ArmCpu &) override {}
        void svc(ArmCpu &, std::uint32_t) override {}
        bool pageFault(ArmCpu &, Addr, bool, bool) override
        {
            return false;
        }
        const char *name() const override { return "mark-guest"; }
    } os;

    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm_a = stack.kvm.createVm(32 * kMiB);
        auto vm_b = stack.kvm.createVm(32 * kMiB);
        core::VCpu &va = vm_a->addVcpu(0);
        core::VCpu &vb = vm_b->addVcpu(0);
        va.setGuestOs(&os);
        vb.setGuestOs(&os);

        // The host alternates the two VMs on the one physical core; each
        // writes and re-checks its own memory (distinct VMIDs, distinct
        // Stage-2 tables).
        for (int round = 0; round < 4; ++round) {
            va.run(cpu, [&](ArmCpu &c) {
                Addr a = ArmMachine::kRamBase + 0x1000;
                std::uint64_t prev = c.memRead(a, 8);
                EXPECT_EQ(prev, std::uint64_t(round) * 2);
                c.memWrite(a, prev + 2, 8);
            });
            vb.run(cpu, [&](ArmCpu &c) {
                Addr a = ArmMachine::kRamBase + 0x1000;
                std::uint64_t prev = c.memRead(a, 8);
                EXPECT_EQ(prev, std::uint64_t(round) * 3);
                c.memWrite(a, prev + 3, 8);
            });
        }
        EXPECT_NE(vm_a->stage2().vmid(), vm_b->stage2().vmid());
    });
    stack.machine.run();
}

TEST(Integration, NoVgicStackRunsTheSameGuest)
{
    core::KvmConfig kc;
    kc.useVgic = false;
    kc.useVtimers = false;
    core::KvmStack stack({.numCpus = 1, .ramSize = 512 * kMiB, .kvm = kc});

    wl::ArmOsImage image;
    image.ramSize = 64 * kMiB;
    wl::ArmLinuxPort port(stack.machine.cpu(0), image, 0);

    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(128 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&port);
        vcpu.run(cpu, [&](ArmCpu &) {
            port.boot();
            // Timer interrupt delivered through HCR.VI + user-space GIC.
            port.timerProgram(40000);
            port.idle();
            EXPECT_GE(port.timerIrqsReceived(), 1u);
        });
        // The ACK/EOI pair went to user space.
        EXPECT_GE(vcpu.stats.counterValue("mmio.user.gicc"), 2u);
        EXPECT_GE(vcpu.stats.counterValue("vtimer.trapped"), 2u);
    });
    stack.machine.run();
}

} // namespace
} // namespace kvmarm
