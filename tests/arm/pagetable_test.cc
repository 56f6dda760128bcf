/**
 * @file
 * Page table walker/editor tests across the three LPAE-style formats,
 * including the format differences the paper's design hinges on: Hyp-mode
 * descriptors mandate bits that reject kernel-format entries.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "arm/pagetable.hh"
#include "mem/phys_mem.hh"
#include "sim/logging.hh"

namespace kvmarm::arm {
namespace {

class PtFixture
{
  public:
    explicit PtFixture(PtFormat fmt)
        : ram(0, 64 * kMiB), next(32 * kMiB),
          editor(fmt, [this](Addr pa) { return ram.read(pa, 8); },
                 [this](Addr pa, std::uint64_t v) { ram.write(pa, v, 8); },
                 [this] {
                     next -= kPageSize;
                     ram.zeroPage(next);
                     return next;
                 }),
          fmt_(fmt)
    {
        root = editor.newRoot();
    }

    WalkResult
    walk(Addr va)
    {
        return walkTable(root, va, fmt_,
                         [this](Addr pa) -> std::optional<std::uint64_t> {
                             if (!ram.contains(pa, 8))
                                 return std::nullopt;
                             return ram.read(pa, 8);
                         });
    }

    PhysMem ram;
    Addr next;
    PageTableEditor editor;
    Addr root;

  private:
    PtFormat fmt_;
};

/**
 * Reader that records the address of every descriptor it is asked for and
 * aborts the walk on read number @c abortAt (1-based; 0 never aborts).
 * Passed as an lvalue, so the walk must use this object, not a copy.
 */
struct CountingReader
{
    explicit CountingReader(PhysMem &r, unsigned abort_at = 0)
        : ram(r), abortAt(abort_at)
    {
    }

    PhysMem &ram;
    unsigned abortAt;
    std::vector<Addr> reads;

    std::optional<std::uint64_t>
    operator()(Addr pa)
    {
        reads.push_back(pa);
        if (reads.size() == abortAt)
            return std::nullopt;
        return ram.read(pa, 8);
    }
};

/** The descriptor addresses a walk of @p va must read, level by level. */
std::vector<Addr>
descriptorAddrs(const PtFixture &f, Addr va, int levels)
{
    std::vector<Addr> addrs;
    Addr table = f.root;
    for (int level = 1; level <= levels; ++level) {
        addrs.push_back(table + ptIndex(va, level) * 8);
        table = f.ram.read(addrs.back(), 8) & desc::kAddrMask;
    }
    return addrs;
}

class PageTableFormats : public ::testing::TestWithParam<PtFormat>
{
};

TEST_P(PageTableFormats, MapThenWalkTranslates)
{
    PtFixture f(GetParam());
    Perms p;
    p.user = GetParam() != PtFormat::HypLpae;
    f.editor.map(f.root, 0x40001000, 0x00123000, p);

    WalkResult r = f.walk(0x40001234);
    ASSERT_TRUE(r.ok()) << faultTypeName(r.fault);
    EXPECT_EQ(r.pa, 0x00123234u);
    EXPECT_EQ(r.level, 3);
    EXPECT_EQ(r.tableReads, 3u);
}

TEST_P(PageTableFormats, UnmappedVaFaults)
{
    PtFixture f(GetParam());
    WalkResult r = f.walk(0x50000000);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.fault, FaultType::Translation);
    EXPECT_EQ(r.level, 1);
}

TEST_P(PageTableFormats, UnmapRestoresFault)
{
    PtFixture f(GetParam());
    Perms p;
    p.user = false;
    f.editor.map(f.root, 0x40000000, 0x1000, p);
    EXPECT_TRUE(f.walk(0x40000000).ok());
    EXPECT_TRUE(f.editor.unmap(f.root, 0x40000000));
    EXPECT_FALSE(f.walk(0x40000000).ok());
    EXPECT_FALSE(f.editor.unmap(f.root, 0x40000000));
}

TEST_P(PageTableFormats, Block2MMapsWholeRegion)
{
    PtFixture f(GetParam());
    Perms p;
    p.user = false;
    f.editor.mapBlock2M(f.root, 0x40000000, 0x00200000, p);
    WalkResult r = f.walk(0x401ABCDE);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.pa, 0x003ABCDEu);
    EXPECT_EQ(r.level, 2);
    EXPECT_EQ(r.tableReads, 2u); // blocks terminate the walk early
}

TEST_P(PageTableFormats, PageWalkReadsThreeDescriptorsInLevelOrder)
{
    PtFixture f(GetParam());
    Perms p;
    p.user = GetParam() != PtFormat::HypLpae;
    f.editor.map(f.root, 0x40001000, 0x00123000, p);

    CountingReader reader(f.ram);
    WalkResult r = walkTable(f.root, 0x40001234, GetParam(), reader);
    ASSERT_TRUE(r.ok()) << faultTypeName(r.fault);
    EXPECT_EQ(reader.reads, descriptorAddrs(f, 0x40001234, 3));
    EXPECT_EQ(r.tableReads, 3u);
}

TEST_P(PageTableFormats, BlockWalkReadsTwoDescriptorsInLevelOrder)
{
    PtFixture f(GetParam());
    Perms p;
    p.user = false;
    f.editor.mapBlock2M(f.root, 0x40000000, 0x00200000, p);

    CountingReader reader(f.ram);
    WalkResult r = walkTable(f.root, 0x401ABCDE, GetParam(), reader);
    ASSERT_TRUE(r.ok()) << faultTypeName(r.fault);
    EXPECT_EQ(reader.reads, descriptorAddrs(f, 0x401ABCDE, 2));
    EXPECT_EQ(r.tableReads, 2u);
}

TEST_P(PageTableFormats, ReaderAbortAtLevelIsBusFaultAtThatLevel)
{
    PtFixture f(GetParam());
    Perms p;
    p.user = false;
    f.editor.map(f.root, 0x40001000, 0x00123000, p);
    f.editor.mapBlock2M(f.root, 0x40200000, 0x00400000, p);

    struct Case
    {
        Addr va;
        int levels; //!< descriptors the full walk reads
    };
    for (Case c : {Case{0x40001234, 3}, Case{0x40212345, 2}}) {
        for (int k = 1; k <= c.levels; ++k) {
            SCOPED_TRACE(::testing::Message() << "va " << std::hex << c.va
                                              << " abort at level " << k);
            CountingReader reader(f.ram, unsigned(k));
            WalkResult r = walkTable(f.root, c.va, GetParam(), reader);
            EXPECT_EQ(r.fault, FaultType::Bus);
            EXPECT_EQ(r.level, k);
            EXPECT_EQ(r.tableReads, unsigned(k));
            std::vector<Addr> want = descriptorAddrs(f, c.va, k);
            EXPECT_EQ(reader.reads, want);
        }
    }
}

TEST_P(PageTableFormats, PermissionBitsRoundTrip)
{
    PtFixture f(GetParam());
    Perms p;
    p.user = GetParam() == PtFormat::KernelLpae;
    p.write = false;
    p.exec = false;
    p.device = true;
    f.editor.map(f.root, 0x40002000, 0x5000, p);
    WalkResult r = f.walk(0x40002000);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.perms.write);
    EXPECT_FALSE(r.perms.exec);
    EXPECT_TRUE(r.perms.device);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, PageTableFormats,
                         ::testing::Values(PtFormat::KernelLpae,
                                           PtFormat::HypLpae,
                                           PtFormat::Stage2),
                         [](const auto &info) {
                             switch (info.param) {
                               case PtFormat::KernelLpae: return "Kernel";
                               case PtFormat::HypLpae: return "Hyp";
                               case PtFormat::Stage2: return "Stage2";
                             }
                             return "?";
                         });

TEST(PageTableFormatDifference, HypRejectsKernelDescriptors)
{
    // The paper's §3.1 point: the kernel's page tables cannot simply be
    // reused in Hyp mode because the formats differ. Build a *kernel*
    // format user mapping and walk it with the *Hyp* regime rules.
    PtFixture f(PtFormat::KernelLpae);
    Perms p;
    p.user = true; // user bit set: illegal in the Hyp regime
    f.editor.map(f.root, 0x40000000, 0x1000, p);

    WalkResult r = walkTable(
        f.root, 0x40000000, PtFormat::HypLpae,
        [&](Addr pa) -> std::optional<std::uint64_t> {
            return f.ram.read(pa, 8);
        });
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.fault, FaultType::BadFormat);
}

TEST(PageTableFormatDifference, HypEncoderRefusesUserMappings)
{
    EXPECT_DEATH(
        {
            Perms p;
            p.user = true;
            encodeLeaf(0x1000, p, PtFormat::HypLpae);
        },
        "no user mappings");
}

TEST(PageTable, Stage2PermissionEncoding)
{
    Perms p;
    p.read = true;
    p.write = false;
    std::uint64_t d = encodeLeaf(0x2000, p, PtFormat::Stage2);
    Perms out;
    EXPECT_EQ(decodeLeaf(d, PtFormat::Stage2, out), FaultType::None);
    EXPECT_TRUE(out.read);
    EXPECT_FALSE(out.write);
}

TEST(PageTable, EditorRejectsUnaligned)
{
    PtFixture f(PtFormat::KernelLpae);
    Perms p;
    EXPECT_THROW(f.editor.map(f.root, 0x40000123, 0x1000, p), FatalError);
    EXPECT_THROW(f.editor.mapBlock2M(f.root, 0x40001000, 0, p),
                 FatalError);
}

TEST(PageTable, LookupFindsMapping)
{
    PtFixture f(PtFormat::KernelLpae);
    Perms p;
    f.editor.map(f.root, 0x40003000, 0x7000, p);
    EXPECT_EQ(f.editor.lookup(f.root, 0x40003000).value_or(0), 0x7000u);
    EXPECT_FALSE(f.editor.lookup(f.root, 0x40004000).has_value());
}

} // namespace
} // namespace kvmarm::arm
