/**
 * @file
 * Virtual distributor tests (paper §3.5): guest configuration via trapped
 * MMIO, virtual IPIs between VCPUs, list-register flush/sync across world
 * switches, LR overflow via the maintenance mechanism, user-space
 * injection (KVM_IRQ_LINE), and WFI wakeups.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/kvm_stack.hh"

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
    explicit VgicEmulTest(bool vgic = true)
        : stack({.numCpus = 2,
                 .ramSize = 256 * kMiB,
                 .kvm = vgicConfig(vgic)})
    {
    }

    static core::KvmConfig
    vgicConfig(bool vgic)
    {
        core::KvmConfig kc;
        kc.useVgic = vgic;
        return kc;
    }

    /** Run @p body to completion in a booted guest on a one-VCPU VM on
     *  CPU0. */
    void
    runGuest(const std::function<void(ArmCpu &, core::Vm &, core::VCpu &)>
                 &body)
    {
        bool done = false;
        stack.onCpu(0, [&](ArmCpu &cpu) {
            auto vm = stack.kvm.createVm(32 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&guest0);
            vcpu.run(cpu, [&](ArmCpu &c) {
                guest0.boot(c);
                body(c, *vm, vcpu);
                done = true;
            });
        });
        stack.machine.run();
        EXPECT_TRUE(done);
    }

    /** A guest ISPENDR write pends an enabled SPI, which the guest then
     *  takes exactly once; the write's SGI bits have no effect. */
    void
    expectSetPendingDeliversOnce()
    {
        constexpr IrqId kSpi = 60;
        runGuest([&](ArmCpu &c, core::Vm &, core::VCpu &) {
            const Addr gicd = ArmMachine::kGicdBase;
            c.memWrite(gicd + arm::gicd::ISPENDR, 0xFFFF);
            EXPECT_EQ(c.memRead(gicd + arm::gicd::ISPENDR, 4), 0u);
            c.memWrite(gicd + arm::gicd::ISPENDR + 4, 1u << (kSpi - 32));
            for (int i = 0; i < 3; ++i) {
                c.hvc(core::hvc::kTestHypercall);
                c.compute(10);
            }
        });
        EXPECT_EQ(guest0.received.size(), 1u);
        EXPECT_EQ(guest0.received[kSpi], 1);
    }

    core::KvmStack stack;
    CountingGuest guest0, guest1;
};

TEST_F(VgicEmulTest, TrappedDistributorConfigRoundTrips)
{
    runGuest([&](ArmCpu &c, core::Vm &vm, core::VCpu &vcpu) {
        const Addr gicd = ArmMachine::kGicdBase;
        auto rd = [&](Addr off) {
            return static_cast<std::uint32_t>(c.memRead(gicd + off, 4));
        };
        // Priorities and reads go through the emulated distributor.
        c.memWrite(gicd + arm::gicd::IPRIORITYR + 50, 0x30);
        EXPECT_EQ(rd(arm::gicd::IPRIORITYR + 50), 0x30u);
        EXPECT_EQ(rd(arm::gicd::CTLR), 1u);
        EXPECT_EQ(rd(arm::gicd::TYPER), 4u); // one VCPU, 160 IRQs

        // Both enable registers read back the enable bits (the guest
        // enabled SGIs 0-15 and SPIs 32-63 at boot).
        constexpr std::uint32_t kBit = 1u << (50 - 32);
        EXPECT_EQ(rd(arm::gicd::ISENABLER), 0xFFFFu);
        EXPECT_EQ(rd(arm::gicd::ICENABLER), 0xFFFFu);
        c.memWrite(gicd + arm::gicd::ICENABLER + 4, kBit);
        EXPECT_EQ(rd(arm::gicd::ISENABLER + 4), ~kBit);
        EXPECT_EQ(rd(arm::gicd::ICENABLER + 4), ~kBit);

        // Both pending registers read back the pending bits.
        vm.irqLine(c, 50);
        EXPECT_EQ(rd(arm::gicd::ISPENDR + 4), kBit);
        EXPECT_EQ(rd(arm::gicd::ICPENDR + 4), kBit);
        c.memWrite(gicd + arm::gicd::ICPENDR + 4, kBit);
        EXPECT_EQ(rd(arm::gicd::ISPENDR + 4), 0u);

        // SPI targets round-trip; SGI/PPI targets read as this VCPU.
        c.memWrite(gicd + arm::gicd::ITARGETSR + 50, 0x01);
        EXPECT_EQ(rd(arm::gicd::ITARGETSR + 50), 0x01u);
        EXPECT_EQ(rd(arm::gicd::ITARGETSR + 20), 0x01u);
        EXPECT_GE(vcpu.stats.counterValue("mmio.vdist"), 5u);
    });
}

TEST_F(VgicEmulTest, UserSpaceInjectionDeliversSpi)
{
    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
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
    stack.machine.run();
}

TEST_F(VgicEmulTest, ClearPendingViaMmio)
{
    // A guest ICPENDR write clears pending state in the emulated
    // distributor, as it does on the physical one: a cleared SPI, PPI or
    // SGI is never delivered once enabled.
    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
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
    stack.machine.run();
}

TEST_F(VgicEmulTest, SetPendingViaMmioDeliversOnce)
{
    expectSetPendingDeliversOnce();
}

TEST_F(VgicEmulTest, LrOverflowDeliversEverything)
{
    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
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
    stack.machine.run();
}

TEST_F(VgicEmulTest, VirtualIpiCrossVcpu)
{
    std::unique_ptr<core::Vm> vm;
    bool peer_ready = false, done = false;

    stack.onCpu(0, [&](ArmCpu &cpu) {
        vm = stack.kvm.createVm(32 * kMiB);
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
    stack.onCpu(1, [&](ArmCpu &cpu) {
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
    stack.machine.run();
    EXPECT_EQ(guest1.received[9], 1);
    EXPECT_EQ(guest1.lastSgiSource, 0u); // sender was vcpu0
}

TEST_F(VgicEmulTest, InjectionWakesWfiBlockedVcpu)
{
    std::unique_ptr<core::Vm> vm;
    bool peer_in_wfi_phase = false, done = false;

    stack.onCpu(0, [&](ArmCpu &cpu) {
        vm = stack.kvm.createVm(32 * kMiB);
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
    stack.onCpu(1, [&](ArmCpu &cpu) {
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
    stack.machine.run();
    EXPECT_GE(guest1.received[2], 1);
    // The WFI really was emulated by blocking.
    EXPECT_GE(vm->vcpus()[1]->stats.counterValue("emul.wfi"), 1u);
}

/** The same distributor with no VGIC: pending state reaches the guest as
 *  HCR.VI, and ACK/EOI trap to the user-space GIC model. */
class NoVgicEmulTest : public VgicEmulTest
{
  protected:
    NoVgicEmulTest() : VgicEmulTest(false) {}

    static constexpr IrqId kSpi = 60;
    static constexpr std::uint32_t kBit = 1u << (kSpi - 32);

    /**
     * With the guest's IRQs masked, pend SPI 60 enabled and routed to the
     * VCPU, then apply one distributor write: the VCPU must no longer see
     * a pending interrupt, and after unmasking and a world switch the
     * guest takes none (not even a spurious ACK).
     */
    void
    expectWriteCancels(Addr off, std::uint32_t value)
    {
        runGuest([&](ArmCpu &c, core::Vm &vm, core::VCpu &vcpu) {
            c.setIrqMasked(true);
            vm.irqLine(c, kSpi);
            EXPECT_TRUE(vcpu.softVirqPending);
            c.memWrite(ArmMachine::kGicdBase + off, value);
            EXPECT_FALSE(vcpu.softVirqPending);
            std::uint64_t acks = vcpu.stats.counterValue("mmio.user.gicc");
            c.setIrqMasked(false);
            c.hvc(core::hvc::kTestHypercall);
            c.compute(10);
            EXPECT_EQ(vcpu.stats.counterValue("mmio.user.gicc"), acks);
        });
        EXPECT_TRUE(guest0.received.empty());
    }
};

TEST_F(NoVgicEmulTest, EnablingAPendingSpiDeliversIt)
{
    runGuest([&](ArmCpu &c, core::Vm &vm, core::VCpu &) {
        const Addr gicd = ArmMachine::kGicdBase;
        c.memWrite(gicd + arm::gicd::ICENABLER + 4, kBit);
        vm.irqLine(c, kSpi);
        c.hvc(core::hvc::kTestHypercall);
        c.compute(10);
        EXPECT_EQ(guest0.received[kSpi], 0);

        c.memWrite(gicd + arm::gicd::ISENABLER + 4, kBit);
        c.hvc(core::hvc::kTestHypercall);
        c.compute(10);
        EXPECT_EQ(guest0.received[kSpi], 1);
    });
    EXPECT_EQ(guest0.received[kSpi], 1);
}

TEST_F(NoVgicEmulTest, SetPendingViaMmioDeliversOnce)
{
    expectSetPendingDeliversOnce();
}

TEST_F(NoVgicEmulTest, DisablingAPendingSpiDeliversNothing)
{
    expectWriteCancels(arm::gicd::ICENABLER + 4, kBit);
}

TEST_F(NoVgicEmulTest, ClearingAPendingSpiDeliversNothing)
{
    expectWriteCancels(arm::gicd::ICPENDR + 4, kBit);
}

TEST_F(NoVgicEmulTest, RetargetingAPendingSpiAwayDeliversNothing)
{
    // SPI 60's target byte now names VCPU1, which this VM lacks.
    expectWriteCancels(arm::gicd::ITARGETSR + kSpi, 0x02);
}

} // namespace
} // namespace kvmarm
