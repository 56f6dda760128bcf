/**
 * @file
 * Virtual distributor tests (paper §3.5): guest configuration via trapped
 * MMIO, virtual IPIs between VCPUs, list-register flush/sync across world
 * switches, LR overflow via the maintenance mechanism, user-space
 * injection (KVM_IRQ_LINE), and WFI wakeups.
 */

#include <gtest/gtest.h>

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

/** Guest kernel counting interrupts per id. */
class CountingGuest : public arm::OsVectors
{
  public:
    void
    irq(ArmCpu &cpu) override
    {
        std::uint32_t iar = static_cast<std::uint32_t>(cpu.memRead(
            ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        IrqId id = iar & 0x3FF;
        if (id != arm::kSpuriousIrq) {
            ++received[id];
            if (id < arm::kNumSgis)
                lastSgiSource = (iar >> 10) & 0x7;
            cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
        }
    }
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "counting-guest"; }

    void
    boot(ArmCpu &cpu)
    {
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER, 0xFFFF);
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER + 4,
                     0xFFFFFFFF);
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
        cpu.setIrqMasked(false);
    }

    std::map<IrqId, int> received;
    unsigned lastSgiSource = 99;
};

class VgicEmulTest : public ::testing::Test
{
  protected:
    VgicEmulTest()
    {
        ArmMachine::Config mc;
        mc.numCpus = 2;
        mc.ramSize = 256 * kMiB;
        machine = std::make_unique<ArmMachine>(mc);
        hostk = std::make_unique<host::HostKernel>(*machine);
        kvm = std::make_unique<core::Kvm>(*hostk);
    }

    std::unique_ptr<ArmMachine> machine;
    std::unique_ptr<host::HostKernel> hostk;
    std::unique_ptr<core::Kvm> kvm;
    CountingGuest guest0, guest1;
};

TEST_F(VgicEmulTest, TrappedDistributorConfigRoundTrips)
{
    machine->cpu(0).setEntry([&] {
        ArmCpu &cpu = machine->cpu(0);
        hostk->boot(0);
        kvm->initCpu(cpu);
        auto vm = kvm->createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest0);
        vcpu.run(cpu, [&](ArmCpu &c) {
            guest0.boot(c);
            // Priorities and reads go through the emulated distributor.
            c.memWrite(ArmMachine::kGicdBase + arm::gicd::IPRIORITYR + 50,
                       0x30);
            EXPECT_EQ(c.memRead(ArmMachine::kGicdBase +
                                    arm::gicd::IPRIORITYR + 50,
                                4),
                      0x30u);
            EXPECT_EQ(c.memRead(ArmMachine::kGicdBase + arm::gicd::CTLR, 4),
                      1u);
        });
        EXPECT_GE(vcpu.stats.counterValue("mmio.vdist"), 5u);
    });
    machine->run();
}

TEST_F(VgicEmulTest, UserSpaceInjectionDeliversSpi)
{
    machine->cpu(0).setEntry([&] {
        ArmCpu &cpu = machine->cpu(0);
        hostk->boot(0);
        kvm->initCpu(cpu);
        auto vm = kvm->createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest0);
        vcpu.run(cpu, [&](ArmCpu &c) {
            guest0.boot(c);
            // KVM_IRQ_LINE from "user space" (host context here).
            vm->irqLine(c, 60);
            // Delivery happens at the next world switch in; force one.
            c.hvc(core::hvc::kTestHypercall);
            c.compute(10);
            EXPECT_EQ(guest0.received[60], 1);
        });
    });
    machine->run();
}

TEST_F(VgicEmulTest, ClearPendingViaMmio)
{
    // A guest ICPENDR write clears pending state in the emulated
    // distributor, as it does on the physical one: a cleared SPI, PPI or
    // SGI is never delivered once enabled.
    machine->cpu(0).setEntry([&] {
        ArmCpu &cpu = machine->cpu(0);
        hostk->boot(0);
        kvm->initCpu(cpu);
        auto vm = kvm->createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest0);
        vcpu.run(cpu, [&](ArmCpu &c) {
            guest0.boot(c);
            const Addr gicd = ArmMachine::kGicdBase;
            // Disable SGI 3, PPI 20 and SPI 60, then pend all three.
            c.memWrite(gicd + arm::gicd::ICENABLER, (1u << 3) | (1u << 20));
            c.memWrite(gicd + arm::gicd::ICENABLER + 4, 1u << (60 - 32));
            c.memWrite(gicd + arm::gicd::SGIR, (2u << 24) | 3); // to self
            vm->vdist().injectPpi(c, vcpu, 20);
            vm->irqLine(c, 60);
            EXPECT_EQ(c.memRead(gicd + arm::gicd::ISPENDR, 4),
                      (1u << 3) | (1u << 20));
            EXPECT_EQ(c.memRead(gicd + arm::gicd::ISPENDR + 4, 4),
                      1u << (60 - 32));

            c.memWrite(gicd + arm::gicd::ICPENDR, (1u << 3) | (1u << 20));
            c.memWrite(gicd + arm::gicd::ICPENDR + 4, 1u << (60 - 32));
            EXPECT_EQ(c.memRead(gicd + arm::gicd::ISPENDR, 4), 0u);
            EXPECT_EQ(c.memRead(gicd + arm::gicd::ISPENDR + 4, 4), 0u);

            c.memWrite(gicd + arm::gicd::ISENABLER, (1u << 3) | (1u << 20));
            c.memWrite(gicd + arm::gicd::ISENABLER + 4, 1u << (60 - 32));
            EXPECT_EQ(vm->vdist().bestPending(vcpu).irq, arm::kSpuriousIrq);
            c.hvc(core::hvc::kTestHypercall);
            c.compute(10);
        });
        EXPECT_TRUE(guest0.received.empty());
    });
    machine->run();
}

TEST_F(VgicEmulTest, LrOverflowDeliversEverything)
{
    machine->cpu(0).setEntry([&] {
        ArmCpu &cpu = machine->cpu(0);
        hostk->boot(0);
        kvm->initCpu(cpu);
        auto vm = kvm->createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest0);
        vcpu.run(cpu, [&](ArmCpu &c) {
            guest0.boot(c);
            // Inject more SPIs than there are list registers (4).
            for (IrqId irq = 48; irq < 48 + 7; ++irq)
                vm->irqLine(c, irq);
            c.hvc(core::hvc::kTestHypercall);
            // Handlers EOI; the maintenance path refills until drained.
            for (int spin = 0; spin < 16; ++spin)
                c.compute(500);
            int total = 0;
            for (IrqId irq = 48; irq < 48 + 7; ++irq)
                total += guest0.received[irq];
            EXPECT_EQ(total, 7);
        });
    });
    machine->run();
}

TEST_F(VgicEmulTest, VirtualIpiCrossVcpu)
{
    std::unique_ptr<core::Vm> vm;
    bool peer_ready = false, done = false;

    machine->cpu(0).setEntry([&] {
        ArmCpu &cpu = machine->cpu(0);
        hostk->boot(0);
        kvm->initCpu(cpu);
        vm = kvm->createVm(32 * kMiB);
        core::VCpu &vcpu0 = vm->addVcpu(0);
        vm->addVcpu(1);
        vcpu0.setGuestOs(&guest0);
        vcpu0.run(cpu, [&](ArmCpu &c) {
            guest0.boot(c);
            while (!peer_ready)
                c.compute(200);
            // Virtual SGI 9 to VCPU1 through the trapped distributor.
            c.memWrite(ArmMachine::kGicdBase + arm::gicd::SGIR,
                       (1u << 17) | 9);
            while (guest1.received[9] < 1)
                c.compute(200);
            done = true;
        });
    });
    machine->cpu(1).setEntry([&] {
        ArmCpu &cpu = machine->cpu(1);
        hostk->boot(1);
        kvm->initCpu(cpu);
        while (!vm || vm->vcpus().size() < 2)
            cpu.compute(300);
        core::VCpu &vcpu1 = *vm->vcpus()[1];
        vcpu1.setGuestOs(&guest1);
        vcpu1.run(cpu, [&](ArmCpu &c) {
            guest1.boot(c);
            peer_ready = true;
            while (!done)
                c.compute(150);
        });
    });
    machine->run();
    EXPECT_EQ(guest1.received[9], 1);
    EXPECT_EQ(guest1.lastSgiSource, 0u); // sender was vcpu0
}

TEST_F(VgicEmulTest, InjectionWakesWfiBlockedVcpu)
{
    std::unique_ptr<core::Vm> vm;
    bool peer_in_wfi_phase = false, done = false;

    machine->cpu(0).setEntry([&] {
        ArmCpu &cpu = machine->cpu(0);
        hostk->boot(0);
        kvm->initCpu(cpu);
        vm = kvm->createVm(32 * kMiB);
        core::VCpu &vcpu0 = vm->addVcpu(0);
        vm->addVcpu(1);
        vcpu0.setGuestOs(&guest0);
        vcpu0.run(cpu, [&](ArmCpu &c) {
            guest0.boot(c);
            while (!peer_in_wfi_phase)
                c.compute(300);
            c.compute(5000); // let the peer actually block
            c.memWrite(ArmMachine::kGicdBase + arm::gicd::SGIR,
                       (1u << 17) | 2);
            while (guest1.received[2] < 1)
                c.compute(300);
            done = true;
        });
    });
    machine->cpu(1).setEntry([&] {
        ArmCpu &cpu = machine->cpu(1);
        hostk->boot(1);
        kvm->initCpu(cpu);
        while (!vm || vm->vcpus().size() < 2)
            cpu.compute(300);
        core::VCpu &vcpu1 = *vm->vcpus()[1];
        vcpu1.setGuestOs(&guest1);
        vcpu1.run(cpu, [&](ArmCpu &c) {
            guest1.boot(c);
            peer_in_wfi_phase = true;
            while (guest1.received[2] < 1) {
                c.wfi(); // trapped; KVM blocks the VCPU until wakeup
                c.compute(10);
            }
            while (!done)
                c.compute(300);
        });
    });
    machine->run();
    EXPECT_GE(guest1.received[2], 1);
    // The WFI really was emulated by blocking.
    EXPECT_GE(vm->vcpus()[1]->stats.counterValue("emul.wfi"), 1u);
}

} // namespace
} // namespace kvmarm
