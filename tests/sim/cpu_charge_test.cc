/**
 * @file
 * Cycle-charge semantics: addCycles() returns at once only when no event,
 * no yield and no deliverable interrupt is due. Each test pins one of the
 * points where it must do the full work: an event reaching its time, the
 * yield threshold, and an interrupt line that became deliverable while
 * the charge had nothing to do. A restore must rebuild the pins and the
 * gate the fast path reads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arm/machine.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::Mode;

ArmMachine::Config
smallConfig(unsigned cpus)
{
    ArmMachine::Config c;
    c.numCpus = cpus;
    c.ramSize = 32 * kMiB;
    return c;
}

TEST(CpuCharge, EventAtTheChargedTimeRunsBeforeAddCyclesReturns)
{
    // In Hyp mode (interrupt gate closed) and in kernel mode alike: the
    // charge that reaches an event's time runs it, at that clock, before
    // the charging call returns; a charge that stops one cycle short
    // does not.
    ArmMachine machine(smallConfig(1));
    ArmCpu &cpu = machine.cpu(0);
    std::vector<Cycles> ran;
    cpu.setEntry([&] {
        for (Mode m : {Mode::Hyp, Mode::Svc}) {
            cpu.setMode(m);
            const Cycles due = cpu.now() + 100;
            cpu.events().schedule(due, [&] { ran.push_back(cpu.now()); });
            const std::size_t before = ran.size();
            cpu.compute(99);
            EXPECT_EQ(ran.size(), before) << arm::modeName(m);
            cpu.compute(1);
            ASSERT_EQ(ran.size(), before + 1) << arm::modeName(m);
            EXPECT_EQ(ran.back(), due);
        }
    });
    machine.run();
    EXPECT_EQ(ran.size(), 2u);
}

TEST(CpuCharge, ChargeReachingTheYieldThresholdYields)
{
    // Two CPUs at clock 0: cpu0 runs first with its threshold one quantum
    // past cpu1. A charge that stops one cycle short keeps running; the
    // charge that reaches the threshold yields, and cpu1 runs before it
    // returns.
    ArmMachine machine(smallConfig(2));
    machine.setQuantum(500);
    ArmCpu &c0 = machine.cpu(0);
    bool cpu1_ran = false;
    bool ran_before_threshold = true;
    bool ran_at_threshold = false;
    c0.setEntry([&] {
        c0.compute(499);
        ran_before_threshold = cpu1_ran;
        c0.compute(1);
        ran_at_threshold = cpu1_ran;
    });
    machine.cpu(1).setEntry([&] { cpu1_ran = true; });
    machine.run();
    EXPECT_FALSE(ran_before_threshold);
    EXPECT_TRUE(ran_at_threshold);
}

/** Counts IRQs and acknowledges each one at the GIC CPU interface. */
class CountingOs : public arm::OsVectors
{
  public:
    void
    irq(ArmCpu &cpu) override
    {
        ++irqs;
        takenAt = cpu.now();
        std::uint64_t iar =
            cpu.memRead(ArmMachine::kGiccBase + arm::gicc::IAR, 4);
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
    }
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "counting-os"; }

    int irqs = 0;
    Cycles takenAt = 0;
};

TEST(CpuCharge, PinRaisedWhileMaskedIsTakenOnTheFirstChargeAfterUnmask)
{
    // The line goes high while CPSR.I masks it: charges keep running
    // without a delivery, unmasking charges nothing, and the first charge
    // after it takes the interrupt.
    constexpr IrqId kSpi = arm::kFirstSpi + 3;
    ArmMachine machine(smallConfig(1));
    ArmCpu &cpu = machine.cpu(0);
    CountingOs os;
    cpu.setEntry([&] {
        cpu.setOsVectors(&os);
        cpu.setIrqMasked(true);
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER + 4,
                     1u << (kSpi - arm::kFirstSpi));
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);

        machine.gicd().raiseSpi(kSpi, cpu.now() + 10);
        cpu.compute(50);
        EXPECT_TRUE(cpu.irqPin(ArmCpu::kPinPhysIrq));
        for (int i = 0; i < 4; ++i)
            cpu.compute(25);
        EXPECT_EQ(os.irqs, 0);

        cpu.setIrqMasked(false);
        EXPECT_EQ(os.irqs, 0);
        const Cycles unmasked_at = cpu.now();
        cpu.compute(1);
        EXPECT_EQ(os.irqs, 1);
        EXPECT_EQ(os.takenAt, unmasked_at + 1 + machine.cost().kernelEntry);
        EXPECT_FALSE(cpu.irqPin(ArmCpu::kPinPhysIrq));
    });
    machine.run();
    EXPECT_EQ(os.irqs, 1);
}

TEST(CpuCharge, RestoreRebuildsPinsAndGate)
{
    // Pins are derived state and never serialized: a restore into a fresh
    // machine rebuilds them from the controllers and the CPU's own mode
    // and HCR.VI. Here the origin sits in Hyp mode with the IRQ line high
    // and VI set, so its gate is closed; the clone must match, and open
    // the gate when it leaves Hyp mode.
    constexpr IrqId kSpi = arm::kFirstSpi + 5;
    ArmMachine origin(smallConfig(1));
    ArmCpu &cpu = origin.cpu(0);
    origin.gicd().write(0, arm::gicd::CTLR, 1, 4);
    origin.gicd().write(0, arm::gicd::ISENABLER + 4,
                        1u << (kSpi - arm::kFirstSpi), 4);
    origin.gicc().write(0, arm::gicc::PMR, 0xFF, 4);
    origin.gicc().write(0, arm::gicc::CTLR, 1, 4);
    origin.gicd().raiseSpi(kSpi, cpu.now());
    cpu.setMode(Mode::Hyp);
    cpu.hypSys("hcr").hcr.vi = true;
    cpu.compute(1); // runs the delivery event; the closed gate holds it
    ASSERT_TRUE(cpu.irqPin(ArmCpu::kPinPhysIrq));
    ASSERT_FALSE(cpu.irqDeliverable());

    ArmMachine clone(smallConfig(1));
    clone.restoreSnapshot(*origin.takeSnapshot());
    ArmCpu &twin = clone.cpu(0);
    EXPECT_EQ(twin.mode(), Mode::Hyp);
    EXPECT_TRUE(twin.irqPin(ArmCpu::kPinPhysIrq));
    EXPECT_FALSE(twin.irqPin(ArmCpu::kPinVirtIrq));
    EXPECT_TRUE(twin.irqPin(ArmCpu::kPinSoftVirq));
    EXPECT_FALSE(twin.irqDeliverable());
    twin.setMode(Mode::Svc);
    EXPECT_TRUE(twin.irqDeliverable());
}

TEST(CpuCharge, HcrViWrittenOutsideHypModePanics)
{
    // HCR.VI is Hyp-only state, and the SoftVirq pin follows it only at
    // mode changes: a write from another mode would leave the pin stale,
    // so the next mode change stops the run.
    ArmMachine machine(smallConfig(1));
    ArmCpu &cpu = machine.cpu(0);
    cpu.setMode(Mode::Svc);
    cpu.hyp().hcr.vi = true;
    EXPECT_DEATH(cpu.setMode(Mode::Hyp), "HCR.VI written outside Hyp mode");
}

} // namespace
} // namespace kvmarm
