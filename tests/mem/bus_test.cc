/** @file Bus decode / MMIO routing and KvmIoBus unit tests. */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "mem/bus.hh"
#include "sim/logging.hh"

namespace kvmarm {
namespace {

/** Scratch device recording accesses. */
class ScratchDev : public MmioDevice
{
  public:
    explicit ScratchDev(Cycles latency = 77) : latency_(latency) {}
    std::string name() const override { return "scratch"; }
    std::uint64_t
    read(CpuId cpu, Addr offset, unsigned) override
    {
        lastCpu = cpu;
        lastOffset = offset;
        return 0xAB00 | offset;
    }
    void
    write(CpuId cpu, Addr offset, std::uint64_t value, unsigned) override
    {
        lastCpu = cpu;
        lastOffset = offset;
        lastValue = value;
    }
    Cycles accessLatency() const override { return latency_; }

    CpuId lastCpu = 99;
    Addr lastOffset = 0;
    std::uint64_t lastValue = 0;

  private:
    Cycles latency_;
};

class BusTest : public ::testing::Test
{
  protected:
    BusTest() : ram(0x80000000, kMiB), bus(ram) {}
    PhysMem ram;
    Bus bus;
    ScratchDev dev;
};

/** Decode @p pa and make one access through the target, as a CPU does
 *  after its translation; @return the value and the target's cost. */
struct Done
{
    std::uint64_t value;
    Cycles latency;
};

Done
access(Bus &bus, CpuId cpu, Addr pa, bool write, std::uint64_t value = 0)
{
    const std::optional<Bus::Target> t = bus.decode(pa, write);
    if (!t) {
        ADD_FAILURE() << "no target at " << std::hex << pa;
        return {0, 0};
    }
    return {t->access(cpu, pa, write, value, 4), t->latency};
}

TEST_F(BusTest, RoutesRamAccesses)
{
    EXPECT_EQ(access(bus, 1, 0x80000100, false).value, 0u); // never written
    auto w = access(bus, 0, 0x80000100, true, 0x55);
    EXPECT_EQ(w.latency, Bus::kRamLatency);
    auto r = access(bus, 1, 0x80000100, false);
    EXPECT_EQ(r.latency, Bus::kRamLatency);
    EXPECT_EQ(r.value, 0x55u);
    EXPECT_EQ(ram.read(0x80000100, 4), 0x55u);
    EXPECT_EQ(bus.regionAt(0x80000100), nullptr);
}

TEST_F(BusTest, RoutesDeviceAccessesWithOffsetAndInitiator)
{
    bus.addDevice(0x09000000, 0x1000, &dev);
    auto r = access(bus, 1, 0x09000018, false);
    EXPECT_EQ(r.value, 0xAB18u);
    EXPECT_EQ(r.latency, 77u);
    EXPECT_EQ(dev.lastCpu, 1u);
    EXPECT_EQ(dev.lastOffset, 0x18u);

    auto w = access(bus, 0, 0x09000020, true, 42);
    EXPECT_EQ(w.latency, 77u);
    EXPECT_EQ(dev.lastValue, 42u);
    EXPECT_EQ(dev.lastCpu, 0u);
    EXPECT_EQ(dev.lastOffset, 0x20u);
}

TEST_F(BusTest, UnmappedAddressFails)
{
    EXPECT_EQ(bus.decode(0x01234567, false), std::nullopt);
    EXPECT_EQ(bus.decode(0x01234567, true), std::nullopt);
    EXPECT_EQ(bus.regionAt(0x01234567), nullptr);
    // One past RAM's end.
    EXPECT_EQ(bus.decode(0x80000000 + kMiB, false), std::nullopt);
}

TEST_F(BusTest, RejectsOverlappingRegions)
{
    bus.addDevice(0x09000000, 0x1000, &dev);
    ScratchDev other;
    EXPECT_THROW(bus.addDevice(0x09000800, 0x1000, &other), FatalError);
    EXPECT_THROW(bus.addDevice(0x80000000, 0x1000, &other), FatalError);
}

TEST_F(BusTest, RegionBaseLookup)
{
    EXPECT_EQ(bus.regionAt(0x09000000), nullptr);
    bus.addDevice(0x09000000, 0x1000, &dev);
    for (Addr pa : {0x09000000ull, 0x09000FFFull}) {
        const Bus::Region *r = bus.regionAt(pa);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->base, 0x09000000u);
        EXPECT_EQ(r->size, 0x1000u);
        EXPECT_EQ(r->dev, &dev);
    }
    EXPECT_EQ(bus.regionAt(0x09001000), nullptr);
    EXPECT_EQ(bus.regionAt(0x08FFFFFF), nullptr);
}

TEST_F(BusTest, ManyRegionsDecodeCorrectly)
{
    // Registered out of order; the bus keeps its table sorted for binary
    // search, so decode must still land on the right device.
    std::vector<std::unique_ptr<ScratchDev>> devs;
    for (int i = 7; i >= 0; --i) {
        devs.push_back(std::make_unique<ScratchDev>(100 + i));
        bus.addDevice(0x09000000 + Addr(i) * 0x10000, 0x1000,
                      devs.back().get());
    }
    for (int i = 0; i < 8; ++i) {
        Addr base = 0x09000000 + Addr(i) * 0x10000;
        ScratchDev *want = devs[7 - i].get();
        for (Addr pa : {base, base + 0xFFF}) {
            const Bus::Region *r = bus.regionAt(pa);
            ASSERT_NE(r, nullptr);
            EXPECT_EQ(r->dev, want);
            EXPECT_EQ(r->base, base);
        }
        EXPECT_EQ(bus.regionAt(base + 0x1000), nullptr);
        auto got = access(bus, 2, base + 0x24, false);
        EXPECT_EQ(got.value, 0xAB24u);
        EXPECT_EQ(got.latency, Cycles(100 + i));
        EXPECT_EQ(want->lastOffset, 0x24u);
        EXPECT_EQ(want->lastCpu, 2u);
    }
    EXPECT_EQ(bus.regionAt(0x08FFFFFF), nullptr);
}

TEST(KvmIoBusTest, FindsRegionsByOffsetAndRejectsOverlaps)
{
    KvmIoBus io;
    io.add(0x0B000000, 0x1000, [](bool w, Addr off, std::uint64_t v, unsigned) {
        return w ? 0 : off + v;
    });
    auto seven = [](bool, Addr, std::uint64_t, unsigned) {
        return std::uint64_t{7};
    };
    EXPECT_THROW(io.add(0x0B000800, 0x1000, seven), FatalError);
    EXPECT_THROW(io.add(0x0AFFF000, 0x1001, seven), FatalError);
    EXPECT_THROW(io.add(0x0B000000, 0x1000, seven), FatalError);
    EXPECT_THROW(io.add(0x0C000000, 0, seven), FatalError);
    EXPECT_THROW(io.add(~Addr{0} - 0xFF, 0x1000, seven), FatalError);
    io.add(0x0AFFF000, 0x1000, seven); // adjacent regions do not overlap

    Addr off = 0;
    KvmIoBus::Handler *h = io.find(0x0B000FFC, off);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(off, 0xFFCu);
    EXPECT_EQ((*h)(false, off, 1, 4), 0xFFDu);
    h = io.find(0x0AFFFFFF, off);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(off, 0xFFFu);
    EXPECT_EQ((*h)(false, off, 0, 4), 7u);
    EXPECT_EQ(io.find(0x0B001000, off), nullptr);
    EXPECT_EQ(io.find(0x0AFFEFFF, off), nullptr);
}

} // namespace
} // namespace kvmarm
