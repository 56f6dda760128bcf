/**
 * @file
 * PhysMem copy-on-write unit tests: snapshotSave publishes an immutable page
 * image and turns the origin into a COW client; snapshotLoad adopts the
 * same image; reads share, the first write to a shared page faults a
 * private copy (ISSUE 8 tentpole; DESIGN.md §4.9).
 */

#include <gtest/gtest.h>

#include "mem/phys_mem.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace kvmarm {
namespace {

/** Save @p mem into a record keyed like MachineBase would. */
SnapshotRecord
save(PhysMem &mem)
{
    SnapshotWriter w;
    mem.snapshotSave(w);
    return w.finish(mem.snapshotKey());
}

/** Restore @p rec into @p mem. */
void
restore(PhysMem &mem, const SnapshotRecord &rec)
{
    SnapshotReader r(rec);
    mem.snapshotLoad(r);
    ASSERT_TRUE(r.done()) << "restore left unread bytes";
}

TEST(PhysMemCow, CloneSharesReadsAndFaultsPrivateCopiesOnWrite)
{
    PhysMem origin(0, 4 * kMiB);
    origin.write(0x0000, 0x11111111u, 4);
    origin.write(kPageSize, 0x22222222u, 4);
    origin.write(2 * kPageSize, 0x33333333u, 4);
    SnapshotRecord rec = save(origin);

    // The origin itself became a COW client: its pages moved into the
    // shared image and it owns nothing privately until it writes again.
    EXPECT_EQ(origin.privatePages(), 0u);
    EXPECT_EQ(origin.sharedPages(), 3u);
    EXPECT_EQ(origin.read(0x0000, 4), 0x11111111u);

    PhysMem clone(0, 4 * kMiB);
    restore(clone, rec);
    EXPECT_EQ(clone.sharedPages(), 3u);
    EXPECT_EQ(clone.privatePages(), 0u);

    // Reads are served from the shared image with no copying.
    EXPECT_EQ(clone.read(0x0000, 4), 0x11111111u);
    EXPECT_EQ(clone.read(kPageSize, 4), 0x22222222u);
    EXPECT_EQ(clone.cowFaults(), 0u);

    // First write to a shared page faults exactly one private copy.
    clone.write(0x0000, 0xAAAAAAAAu, 4);
    EXPECT_EQ(clone.cowFaults(), 1u);
    EXPECT_EQ(clone.privatePages(), 1u);
    clone.write(0x0004, 0xBBBBBBBBu, 4); // same page: no second fault
    EXPECT_EQ(clone.cowFaults(), 1u);

    // The write is visible to the clone only; origin still reads the
    // snapshot-time bytes through the untouched image.
    EXPECT_EQ(clone.read(0x0000, 4), 0xAAAAAAAAu);
    EXPECT_EQ(origin.read(0x0000, 4), 0x11111111u);
}

TEST(PhysMemCow, CowFaultCopiesTheWholePage)
{
    PhysMem origin(0, kMiB);
    origin.write(0x10, 0x1234u, 2);
    origin.write(0x800, 0xCAFEBABEu, 4);
    SnapshotRecord rec = save(origin);

    PhysMem clone(0, kMiB);
    restore(clone, rec);
    clone.write(0x10, 0x9999u, 2);

    // The faulted private page carries the rest of the page's bytes.
    EXPECT_EQ(clone.read(0x10, 2), 0x9999u);
    EXPECT_EQ(clone.read(0x800, 4), 0xCAFEBABEu);
}

TEST(PhysMemCow, WritesToFreshPagesAreNotCowFaults)
{
    PhysMem origin(0, kMiB);
    origin.write(0, 1, 1);
    SnapshotRecord rec = save(origin);

    PhysMem clone(0, kMiB);
    restore(clone, rec);
    // A page the snapshot never materialized is plain sparse allocation.
    clone.write(5 * kPageSize, 0x55u, 1);
    EXPECT_EQ(clone.cowFaults(), 0u);
    EXPECT_EQ(clone.privatePages(), 1u);
}

TEST(PhysMemCow, ZeroPageOnSharedPageTakesTheFaultPath)
{
    PhysMem origin(0, kMiB);
    origin.write(kPageSize + 8, 0xABu, 1);
    SnapshotRecord rec = save(origin);

    PhysMem clone(0, kMiB);
    restore(clone, rec);
    clone.zeroPage(kPageSize);
    EXPECT_EQ(clone.read(kPageSize + 8, 1), 0u);
    // The image page is untouched; the origin still sees the old byte.
    EXPECT_EQ(origin.read(kPageSize + 8, 1), 0xABu);
}

TEST(PhysMemCow, BlockOpsRespectCow)
{
    PhysMem origin(0, kMiB);
    std::vector<std::uint8_t> fill(2 * kPageSize, 0x5A);
    origin.writeBlock(0, fill.data(), fill.size());
    SnapshotRecord rec = save(origin);

    PhysMem clone(0, kMiB);
    restore(clone, rec);

    // readBlock across shared pages copies out without faulting.
    std::vector<std::uint8_t> out(2 * kPageSize);
    clone.readBlock(0, out.data(), out.size());
    EXPECT_EQ(out, fill);
    EXPECT_EQ(clone.cowFaults(), 0u);

    // writeBlock across shared pages faults each page it touches.
    std::vector<std::uint8_t> in(kPageSize + 16, 0xC3);
    clone.writeBlock(kPageSize - 8, in.data(), in.size());
    EXPECT_EQ(clone.cowFaults(), 2u);
    EXPECT_EQ(clone.read(kPageSize - 8, 1), 0xC3u);
    EXPECT_EQ(origin.read(kPageSize - 8, 1), 0x5Au);
}

TEST(PhysMemCow, CloneOfCloneFlattensTheChain)
{
    PhysMem origin(0, kMiB);
    origin.write(0, 0x11u, 1);           // page 0: from the first image
    SnapshotRecord rec1 = save(origin);

    PhysMem clone1(0, kMiB);
    restore(clone1, rec1);
    clone1.write(kPageSize, 0x22u, 1);   // page 1: clone1-private
    clone1.write(0, 0x99u, 1);           // page 0: COW-modified by clone1
    SnapshotRecord rec2 = save(clone1);

    PhysMem clone2(0, kMiB);
    restore(clone2, rec2);
    // The grandchild reads through ONE flat image — clone1's private and
    // modified pages overlaid on what it inherited.
    EXPECT_EQ(clone2.sharedPages(), 2u);
    EXPECT_EQ(clone2.read(0, 1), 0x99u);
    EXPECT_EQ(clone2.read(kPageSize, 1), 0x22u);
    // And the first-generation image is untouched by all of that.
    EXPECT_EQ(origin.read(0, 1), 0x11u);
    EXPECT_EQ(origin.read(kPageSize, 1), 0u);
}

TEST(PhysMemCow, TouchedPagesCountsPrivateAndSharedOnce)
{
    PhysMem origin(0, kMiB);
    origin.write(0, 1, 1);
    origin.write(kPageSize, 2, 1);
    SnapshotRecord rec = save(origin);

    PhysMem clone(0, kMiB);
    restore(clone, rec);
    EXPECT_EQ(clone.touchedPages(), 2u);
    clone.write(0, 9, 1); // COW fault: page 0 now private AND in the image
    EXPECT_EQ(clone.touchedPages(), 2u);
    clone.write(7 * kPageSize, 3, 1);
    EXPECT_EQ(clone.touchedPages(), 3u);
}

TEST(PhysMemCow, RestoreRejectsGeometryMismatch)
{
    PhysMem origin(0, kMiB);
    origin.write(0, 1, 1);
    SnapshotRecord rec = save(origin);

    PhysMem wrong_size(0, 2 * kMiB);
    SnapshotReader r1(rec);
    EXPECT_THROW(wrong_size.snapshotLoad(r1), FatalError);

    PhysMem wrong_base(kPageSize, kMiB);
    SnapshotReader r2(rec);
    EXPECT_THROW(wrong_base.snapshotLoad(r2), FatalError);
}

TEST(PhysMemCow, RepeatedSnapshotsArePossible)
{
    // A machine that was already a COW client can be snapshotted again
    // (fleet golden-image refresh); each save publishes a fresh flat image.
    PhysMem mem(0, kMiB);
    mem.write(0, 0xA1u, 1);
    SnapshotRecord rec1 = save(mem);
    mem.write(kPageSize, 0xB2u, 1);
    SnapshotRecord rec2 = save(mem);

    PhysMem from1(0, kMiB);
    restore(from1, rec1);
    PhysMem from2(0, kMiB);
    restore(from2, rec2);

    EXPECT_EQ(from1.read(0, 1), 0xA1u);
    EXPECT_EQ(from1.read(kPageSize, 1), 0u);
    EXPECT_EQ(from2.read(0, 1), 0xA1u);
    EXPECT_EQ(from2.read(kPageSize, 1), 0xB2u);
}

} // namespace
} // namespace kvmarm
