/**
 * @file
 * ArmCpu trap-routing tests: HCR-configured traps, sensitive operations
 * (parameterized over Table 1's trap-and-emulate group), WFI, interrupt
 * routing (IMO), and the boot-in-Hyp requirement.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "arm/machine.hh"

namespace kvmarm::arm {
namespace {

/** Records every Hyp trap. */
class RecordingHyp : public HypVectors
{
  public:
    void
    hypTrap(ArmCpu &cpu, const Hsr &hsr) override
    {
        trapped.push_back(hsr.ec);
        lastHsr = hsr;
        cpu.setTrappedReadValue(0xE1);
    }
    const char *name() const override { return "recording-hyp"; }

    std::vector<ExcClass> trapped;
    Hsr lastHsr;
};

class CpuTrapTest : public ::testing::Test
{
  protected:
    CpuTrapTest()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 32 * kMiB;
        machine = std::make_unique<ArmMachine>(mc);
        machine->cpu(0).setHypVectors(&hyp);
    }

    void
    run(const std::function<void()> &body)
    {
        machine->cpu(0).setEntry(body);
        machine->run();
    }

    ArmCpu &cpu() { return machine->cpu(0); }

    std::unique_ptr<ArmMachine> machine;
    RecordingHyp hyp;
};

TEST_F(CpuTrapTest, HvcAlwaysTraps)
{
    run([&] {
        cpu().hvc(0x42);
        ASSERT_EQ(hyp.trapped.size(), 1u);
        EXPECT_EQ(hyp.trapped[0], ExcClass::Hvc);
        EXPECT_EQ(hyp.lastHsr.iss, 0x42u);
    });
}

TEST_F(CpuTrapTest, WfiTrapsOnlyWhenConfigured)
{
    run([&] {
        cpu().hyp().hcr.twi = true;
        cpu().wfi();
        ASSERT_EQ(hyp.trapped.size(), 1u);
        EXPECT_EQ(hyp.trapped[0], ExcClass::Wfi);
        // Untrap: native WFI idles until an interrupt; give it one and
        // someone to handle it.
        struct AckOs : OsVectors
        {
            void
            irq(ArmCpu &c) override
            {
                std::uint32_t iar = static_cast<std::uint32_t>(c.memRead(
                    ArmMachine::kGiccBase + gicc::IAR, 4));
                c.memWrite(ArmMachine::kGiccBase + gicc::EOIR, iar, 4);
            }
            void svc(ArmCpu &, std::uint32_t) override {}
            bool pageFault(ArmCpu &, Addr, bool, bool) override
            {
                return false;
            }
            const char *name() const override { return "ack-os"; }
        } os;
        cpu().hyp().hcr.twi = false;
        cpu().setOsVectors(&os);
        cpu().setIrqMasked(false);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::CTLR, 1);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::ISENABLER,
                       1u << kPhysTimerPpi);
        cpu().memWrite(ArmMachine::kGiccBase + gicc::PMR, 0xFF);
        cpu().memWrite(ArmMachine::kGiccBase + gicc::CTLR, 1);
        TimerRegs t;
        t.enable = true;
        t.cval = cpu().now() + 1000;
        machine->timer().setPhys(0, t);
        cpu().wfi();
        EXPECT_EQ(hyp.trapped.size(), 1u); // no second trap
    });
}

TEST_F(CpuTrapTest, SmcTrapsWithTsc)
{
    run([&] {
        cpu().smc(); // untrapped: secure-monitor stub
        EXPECT_TRUE(hyp.trapped.empty());
        cpu().hyp().hcr.tsc = true;
        cpu().smc();
        ASSERT_EQ(hyp.trapped.size(), 1u);
        EXPECT_EQ(hyp.trapped[0], ExcClass::Smc);
    });
}

TEST_F(CpuTrapTest, FpTrapsOnlyWhenLazy)
{
    run([&] {
        cpu().fpOp(10);
        EXPECT_TRUE(hyp.trapped.empty());
        cpu().hyp().trapFpu = true;
        cpu().fpOp(10);
        ASSERT_EQ(hyp.trapped.size(), 1u);
        EXPECT_EQ(hyp.trapped[0], ExcClass::FpTrap);
    });
}

struct SensitiveCase
{
    const char *name; //!< test-name suffix: the SensitiveOp enumerator
    SensitiveOp op;
    bool Hcr::*hcrBit; //!< null -> HDCR (cp14)
    ExcClass expected;
};

/** gtest (and ctest's test names) print the parameter through this;
 *  the default prints raw bytes, padding included. */
void
PrintTo(const SensitiveCase &c, std::ostream *os)
{
    *os << c.name;
}

class SensitiveOpTest : public CpuTrapTest,
                        public ::testing::WithParamInterface<SensitiveCase>
{
};

TEST_P(SensitiveOpTest, TrapsExactlyWhenConfigured)
{
    run([&] {
        const SensitiveCase &c = GetParam();
        // Untrapped: executes natively, no Hyp involvement.
        cpu().sensitiveOp(c.op, 1);
        EXPECT_TRUE(hyp.trapped.empty());

        if (c.hcrBit)
            cpu().hyp().hcr.*c.hcrBit = true;
        else
            cpu().hyp().trapCp14 = true;
        std::uint32_t v = cpu().sensitiveOp(c.op, 1);
        ASSERT_EQ(hyp.trapped.size(), 1u);
        EXPECT_EQ(hyp.trapped[0], c.expected);
        EXPECT_EQ(hyp.lastHsr.iss, std::uint32_t(c.op));
        if (c.op == SensitiveOp::ActlrRead ||
            c.op == SensitiveOp::L2ctlrRead ||
            c.op == SensitiveOp::L2ectlrRead ||
            c.op == SensitiveOp::Cp14Read) {
            EXPECT_EQ(v, 0xE1u); // value provided by the handler
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    Table1TrapGroup, SensitiveOpTest,
    ::testing::Values(
        SensitiveCase{"ActlrRead", SensitiveOp::ActlrRead, &Hcr::tac,
                      ExcClass::Cp15Trap},
        SensitiveCase{"ActlrWrite", SensitiveOp::ActlrWrite, &Hcr::tac,
                      ExcClass::Cp15Trap},
        SensitiveCase{"CacheSetWay", SensitiveOp::CacheSetWay, &Hcr::swio,
                      ExcClass::Cp15Trap},
        SensitiveCase{"L2ctlrRead", SensitiveOp::L2ctlrRead, &Hcr::tidcp,
                      ExcClass::Cp15Trap},
        SensitiveCase{"L2ectlrRead", SensitiveOp::L2ectlrRead, &Hcr::tidcp,
                      ExcClass::Cp15Trap},
        SensitiveCase{"Cp14Read", SensitiveOp::Cp14Read, nullptr,
                      ExcClass::Cp14Trap},
        SensitiveCase{"Cp14Write", SensitiveOp::Cp14Write, nullptr,
                      ExcClass::Cp14Trap}),
    // Name each case by its op, so test names are stable across builds.
    [](const ::testing::TestParamInfo<SensitiveCase> &info) {
        return std::string(info.param.name);
    });

TEST_F(CpuTrapTest, ImoRoutesIrqToHyp)
{
    run([&] {
        cpu().memWrite(ArmMachine::kGicdBase + gicd::CTLR, 1);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::ISENABLER,
                       1u << kVirtTimerPpi);
        cpu().memWrite(ArmMachine::kGiccBase + gicc::CTLR, 1);
        cpu().memWrite(ArmMachine::kGiccBase + gicc::PMR, 0xFF);
        cpu().hyp().hcr.imo = true;
        cpu().setIrqMasked(true); // IMO overrides the guest's CPSR.I

        machine->gicd().raisePpi(0, kVirtTimerPpi);
        struct AckHyp : HypVectors
        {
            void
            hypTrap(ArmCpu &c, const Hsr &hsr) override
            {
                if (hsr.ec != ExcClass::Irq)
                    return;
                ++irqs;
                // Drain it so the line drops (hypervisor-owned ack).
                c.hyp().hcr.imo = false;
                std::uint32_t iar = static_cast<std::uint32_t>(c.memRead(
                    ArmMachine::kGiccBase + gicc::IAR, 4));
                c.memWrite(ArmMachine::kGiccBase + gicc::EOIR, iar);
                c.hyp().hcr.imo = true;
            }
            const char *name() const override { return "ack-hyp"; }
            int irqs = 0;
        } ack;
        cpu().setHypVectors(&ack);
        cpu().compute(10); // delivery happens between ops
        EXPECT_EQ(ack.irqs, 1);
    });
}

TEST_F(CpuTrapTest, IrqRaisedInHypWaitsForEret)
{
    // Hyp mode masks every interrupt: an SPI that comes due while the CPU
    // is in Hyp with HCR.IMO set stays pending until the ERET, then traps
    // straight back to Hyp at the first addCycles() after it. The cycle
    // numbers pin that delivery point; they were recorded while every
    // charge still polled the GIC, before Hyp mode closed the CPU's
    // interrupt gate.
    constexpr IrqId kSpi = kFirstSpi + 8;
    run([&] {
        cpu().memWrite(ArmMachine::kGicdBase + gicd::CTLR, 1);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::ISENABLER + 4,
                       1u << (kSpi - kFirstSpi));
        cpu().memWrite(ArmMachine::kGiccBase + gicc::CTLR, 1);
        cpu().memWrite(ArmMachine::kGiccBase + gicc::PMR, 0xFF);
        cpu().hyp().hcr.imo = true;
        cpu().setIrqMasked(true); // IMO overrides CPSR.I

        struct Hyp : HypVectors
        {
            void
            hypTrap(ArmCpu &c, const Hsr &hsr) override
            {
                if (hsr.ec == ExcClass::Irq) {
                    ++irqs;
                    takenAt = c.now();
                    std::uint32_t iar = static_cast<std::uint32_t>(
                        c.memRead(ArmMachine::kGiccBase + gicc::IAR, 4));
                    c.memWrite(ArmMachine::kGiccBase + gicc::EOIR, iar);
                    return;
                }
                // The SPI lands on this CPU's queue mid-handler.
                raisedAt = c.now() + 20;
                c.machine().gicd().raiseSpi(kSpi, raisedAt);
                for (int i = 0; i < 4; ++i)
                    c.compute(25);
                lineHighInHyp = c.machine().gicc().irqLineHigh(c.id());
                irqsInHyp = irqs;
            }
            const char *name() const override { return "hyp"; }
            int irqs = 0;
            int irqsInHyp = -1;
            bool lineHighInHyp = false;
            Cycles raisedAt = 0;
            Cycles takenAt = 0;
        } h;
        cpu().setHypVectors(&h);
        cpu().hvc(1);
        EXPECT_TRUE(h.lineHighInHyp);
        EXPECT_EQ(h.irqsInHyp, 0);
        EXPECT_EQ(h.irqs, 0); // back in Svc, but no cycles charged yet
        cpu().compute(10);
        EXPECT_EQ(h.irqs, 1);
        EXPECT_EQ(h.raisedAt, 443u);
        EXPECT_EQ(h.takenAt, 560u);
        EXPECT_EQ(cpu().now(), 854u);
    });
}

TEST_F(CpuTrapTest, SoftVirqSetInHypWaitsForEret)
{
    // The no-VGIC path: the hypervisor sets HCR.VI in Hyp mode, where
    // nothing is deliverable, so the virtual IRQ is taken at the first
    // charge after the ERET back to kernel mode. The guest's handler
    // hypercalls to have VI cleared (its trapped EOI).
    struct Hyp : HypVectors
    {
        void
        hypTrap(ArmCpu &c, const Hsr &hsr) override
        {
            bool raise = hsr.iss == 1;
            c.hypSys("hcr").hcr.vi = raise;
            if (!raise)
                return;
            for (int i = 0; i < 4; ++i)
                c.compute(25);
            irqsInHyp = irqs;
        }
        const char *name() const override { return "hyp"; }
        int irqs = 0;
        int irqsInHyp = -1;
    } h;
    struct Guest : OsVectors
    {
        explicit Guest(Hyp &hyp) : hyp(hyp) {}
        void
        irq(ArmCpu &c) override
        {
            ++hyp.irqs;
            takenAt = c.now();
            c.hvc(2);
        }
        void svc(ArmCpu &, std::uint32_t) override {}
        bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
        const char *name() const override { return "guest"; }
        Hyp &hyp;
        Cycles takenAt = 0;
    } guest(h);
    run([&] {
        cpu().setHypVectors(&h);
        cpu().setOsVectors(&guest);
        cpu().setIrqMasked(false);
        cpu().hvc(1);
        EXPECT_EQ(h.irqsInHyp, 0);
        EXPECT_EQ(h.irqs, 0); // back in Svc, but no cycles charged yet
        EXPECT_TRUE(cpu().irqPin(ArmCpu::kPinSoftVirq));
        const Cycles eret_at = cpu().now();
        cpu().compute(10);
        EXPECT_EQ(h.irqs, 1);
        EXPECT_EQ(guest.takenAt,
                  eret_at + 10 + machine->cost().kernelEntry);
        EXPECT_FALSE(cpu().hyp().hcr.vi);
        EXPECT_FALSE(cpu().irqPin(ArmCpu::kPinSoftVirq));
        cpu().compute(10);
        EXPECT_EQ(h.irqs, 1);
    });
}

TEST_F(CpuTrapTest, TrapWithoutVectorsPanics)
{
    run([&] {
        cpu().setHypVectors(nullptr);
        EXPECT_DEATH(cpu().hvc(1), "booted in Hyp mode");
    });
}

TEST_F(CpuTrapTest, StatsCountTrapClasses)
{
    run([&] {
        cpu().hvc(1);
        cpu().hvc(2);
        cpu().hyp().hcr.tsc = true;
        cpu().smc();
        EXPECT_EQ(cpu().stats().counterValue("trap.hvc"), 2u);
        EXPECT_EQ(cpu().stats().counterValue("trap.smc"), 1u);
    });
}

} // namespace
} // namespace kvmarm::arm
