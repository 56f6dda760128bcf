/** @file GICv2 distributor + CPU interface tests. */

#include <gtest/gtest.h>

#include "arm/machine.hh"

namespace kvmarm::arm {
namespace {

class GicTest : public ::testing::Test
{
  protected:
    GicTest()
    {
        ArmMachine::Config mc;
        mc.numCpus = 2;
        mc.ramSize = 32 * kMiB;
        machine = std::make_unique<ArmMachine>(mc);
        // Enable distributor + both CPU interfaces directly.
        gicd().write(0, gicd::CTLR, 1, 4);
        for (CpuId c = 0; c < 2; ++c) {
            gicc().write(c, gicc::CTLR, 1, 4);
            gicc().write(c, gicc::PMR, 0xFF, 4);
            gicd().write(c, gicd::ISENABLER, 0xFFFFFFFF, 4);
        }
        gicd().write(0, gicd::ISENABLER + 4, 0xFFFFFFFF, 4);
    }

    GicDistributor &gicd() { return machine->gicd(); }
    GicCpuInterface &gicc() { return machine->gicc(); }

    std::unique_ptr<ArmMachine> machine;
};

TEST_F(GicTest, SpiRoutesToTargetAndAcks)
{
    gicd().write(0, gicd::ITARGETSR + 40, 0x02, 4); // SPI 40 -> cpu1
    gicd().raiseSpi(40, 0);
    machine->cpuBase(1).events().runDue(10);

    EXPECT_FALSE(gicc().irqLineHigh(0));
    EXPECT_TRUE(gicc().irqLineHigh(1));

    std::uint32_t iar =
        static_cast<std::uint32_t>(gicc().read(1, gicc::IAR, 4));
    EXPECT_EQ(iar & 0x3FF, 40u);
    EXPECT_FALSE(gicc().irqLineHigh(1)); // active, no longer pending
    gicc().write(1, gicc::EOIR, iar, 4);
}

TEST_F(GicTest, SpuriousWhenNothingPending)
{
    std::uint32_t iar =
        static_cast<std::uint32_t>(gicc().read(0, gicc::IAR, 4));
    EXPECT_EQ(iar & 0x3FF, kSpuriousIrq);
}

TEST_F(GicTest, SgiCarriesSourceCpu)
{
    // CPU0 sends SGI 3 to CPU1 via SGIR.
    gicd().write(0, gicd::SGIR, (1u << 17) | 3, 4);
    // Delivery is delayed by the wire latency on cpu1's queue.
    machine->cpuBase(1).events().runDue(machine->cost().ipiWire + 10);

    ASSERT_TRUE(gicc().irqLineHigh(1));
    std::uint32_t iar =
        static_cast<std::uint32_t>(gicc().read(1, gicc::IAR, 4));
    EXPECT_EQ(iar & 0x3FF, 3u);
    EXPECT_EQ((iar >> 10) & 0x7, 0u); // source = cpu0
    gicc().write(1, gicc::EOIR, iar, 4);
    EXPECT_FALSE(gicc().irqLineHigh(1));
}

TEST_F(GicTest, SgiSelfShorthandIsImmediate)
{
    gicd().write(0, gicd::SGIR, (2u << 24) | 7, 4);
    EXPECT_TRUE(gicc().irqLineHigh(0));
}

TEST_F(GicTest, PriorityMaskBlocksDelivery)
{
    gicd().write(0, gicd::IPRIORITYR + 40, 0xC0, 4);
    gicc().write(0, gicc::PMR, 0x80, 4); // mask lower priorities
    gicd().raiseSpi(40, 0);
    machine->cpuBase(0).events().runDue(10);
    EXPECT_FALSE(gicc().irqLineHigh(0));
    gicc().write(0, gicc::PMR, 0xFF, 4);
    EXPECT_TRUE(gicc().irqLineHigh(0));
}

TEST_F(GicTest, HigherPriorityPreempts)
{
    gicd().write(0, gicd::IPRIORITYR + 40, 0xA0, 4);
    gicd().write(0, gicd::IPRIORITYR + 41, 0x40, 4); // higher (lower val)
    gicd().raiseSpi(40, 0);
    machine->cpuBase(0).events().runDue(10);
    std::uint32_t first =
        static_cast<std::uint32_t>(gicc().read(0, gicc::IAR, 4));
    EXPECT_EQ(first & 0x3FF, 40u);

    // While 40 is active, a higher-priority 41 still delivers...
    gicd().raiseSpi(41, 0);
    machine->cpuBase(0).events().runDue(10);
    EXPECT_TRUE(gicc().irqLineHigh(0));
    // ...but another at the same priority would not.
    std::uint32_t second =
        static_cast<std::uint32_t>(gicc().read(0, gicc::IAR, 4));
    EXPECT_EQ(second & 0x3FF, 41u);

    gicc().write(0, gicc::EOIR, second, 4);
    gicc().write(0, gicc::EOIR, first, 4);
    EXPECT_FALSE(gicc().irqLineHigh(0));
}

TEST_F(GicTest, DisableEnableViaMmio)
{
    constexpr std::uint32_t kBit = 1u << (40 - 32);
    gicd().write(0, gicd::ICENABLER + 4, kBit, 4);
    // Both enable registers read back the enable bits, both pending
    // registers the pending bits (GICv2).
    EXPECT_EQ(gicd().read(0, gicd::ISENABLER + 4, 4), ~kBit);
    EXPECT_EQ(gicd().read(0, gicd::ICENABLER + 4, 4), ~kBit);
    EXPECT_EQ(gicd().read(1, gicd::ICENABLER, 4), 0xFFFFFFFFu);
    gicd().raiseSpi(40, 0);
    machine->cpuBase(0).events().runDue(10);
    EXPECT_FALSE(gicc().irqLineHigh(0));
    EXPECT_EQ(gicd().read(0, gicd::ISPENDR + 4, 4), kBit);
    EXPECT_EQ(gicd().read(0, gicd::ICPENDR + 4, 4), kBit);
    gicd().write(0, gicd::ISENABLER + 4, kBit, 4);
    EXPECT_EQ(gicd().read(0, gicd::ICENABLER + 4, 4), 0xFFFFFFFFu);
    EXPECT_TRUE(gicc().irqLineHigh(0));

    // CTLR keeps only its enable bit; the rest are RAZ/WI.
    gicd().write(0, gicd::CTLR, 0xFF, 4);
    EXPECT_EQ(gicd().read(0, gicd::CTLR, 4), 1u);
    EXPECT_EQ(gicd().read(0, gicd::TYPER, 4), (1u << 5) | 4u);
    EXPECT_EQ(gicd().read(1, gicd::ITARGETSR + 20, 1), 0x02u);
}

TEST_F(GicTest, SetPendingDeliversSpiOnce)
{
    constexpr std::uint32_t kBit = 1u << (40 - 32);
    gicd().write(0, gicd::ITARGETSR + 40, 0x02, 4); // SPI 40 -> cpu1
    gicd().write(0, gicd::ISPENDR + 4, kBit, 4);
    EXPECT_EQ(gicd().read(1, gicd::ISPENDR + 4, 4), kBit);
    EXPECT_FALSE(gicc().irqLineHigh(0));
    ASSERT_TRUE(gicc().irqLineHigh(1));

    std::uint32_t iar =
        static_cast<std::uint32_t>(gicc().read(1, gicc::IAR, 4));
    EXPECT_EQ(iar & 0x3FF, 40u);
    gicc().write(1, gicc::EOIR, iar, 4);
    EXPECT_FALSE(gicc().irqLineHigh(1));
    EXPECT_EQ(gicc().read(1, gicc::IAR, 4) & 0x3FF, kSpuriousIrq);
}

TEST_F(GicTest, SetPendingPendsPpiInAccessingBank)
{
    gicd().write(1, gicd::ISPENDR, 1u << kVirtTimerPpi, 4);
    EXPECT_FALSE(gicc().irqLineHigh(0));
    ASSERT_TRUE(gicc().irqLineHigh(1));
    std::uint32_t iar =
        static_cast<std::uint32_t>(gicc().read(1, gicc::IAR, 4));
    EXPECT_EQ(iar & 0x3FF, kVirtTimerPpi);
}

TEST_F(GicTest, SetPendingIgnoresSgiBits)
{
    // GICv2 pends SGIs only through SGIR (or SPENDSGIR).
    gicd().write(0, gicd::ISPENDR, 0xFFFF, 4);
    EXPECT_EQ(gicd().read(0, gicd::ISPENDR, 4), 0u);
    EXPECT_FALSE(gicc().irqLineHigh(0));
    EXPECT_EQ(gicc().read(0, gicc::IAR, 4) & 0x3FF, kSpuriousIrq);
}

TEST_F(GicTest, PpisAreBankedPerCpu)
{
    gicd().raisePpi(0, kVirtTimerPpi);
    EXPECT_TRUE(gicc().irqLineHigh(0));
    EXPECT_FALSE(gicc().irqLineHigh(1));
    std::uint32_t iar =
        static_cast<std::uint32_t>(gicc().read(0, gicc::IAR, 4));
    EXPECT_EQ(iar & 0x3FF, kVirtTimerPpi);
}

TEST_F(GicTest, DistributorDisableGatesEverything)
{
    gicd().raisePpi(0, kVirtTimerPpi);
    gicd().write(0, gicd::CTLR, 0, 4);
    EXPECT_FALSE(gicc().irqLineHigh(0));
}

} // namespace
} // namespace kvmarm::arm
