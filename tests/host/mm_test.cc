/** @file Host memory manager tests. */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "host/mm.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/snapshot.hh"

namespace kvmarm {
namespace {

TEST(HostMm, AllocReturnsZeroedDistinctPages)
{
    PhysMem ram(0x80000000, kMiB);
    ram.write(0x80000000 + kMiB - kPageSize, 0xFF, 1);
    host::Mm mm(ram);
    Addr a = mm.allocPage();
    Addr b = mm.allocPage();
    EXPECT_NE(a, b);
    EXPECT_TRUE(isPageAligned(a));
    EXPECT_EQ(ram.read(a, 8), 0u); // zeroed even if previously dirty
    EXPECT_EQ(mm.refcount(a), 1u);
}

TEST(HostMm, RefcountLifecycle)
{
    PhysMem ram(0, kMiB);
    host::Mm mm(ram);
    Addr a = mm.allocPage();
    std::size_t free_before = mm.freePages();
    mm.getPage(a);
    mm.putPage(a);
    EXPECT_EQ(mm.refcount(a), 1u);
    EXPECT_EQ(mm.freePages(), free_before);
    mm.putPage(a + 123); // sub-page addresses resolve to the frame
    EXPECT_EQ(mm.refcount(a), 0u);
    EXPECT_EQ(mm.freePages(), free_before + 1);
}

TEST(HostMm, FreedPagesAreReused)
{
    PhysMem ram(0, 4 * kPageSize);
    host::Mm mm(ram);
    Addr a = mm.allocPage();
    mm.putPage(a);
    Addr b = mm.allocPage();
    EXPECT_EQ(a, b);
}

TEST(HostMm, ExhaustionIsFatal)
{
    PhysMem ram(0, 2 * kPageSize);
    host::Mm mm(ram);
    mm.allocPage();
    mm.allocPage();
    EXPECT_THROW(mm.allocPage(), FatalError);
}

TEST(HostMm, PutOnFreePagePanics)
{
    PhysMem ram(0, kMiB);
    host::Mm mm(ram);
    EXPECT_DEATH(mm.putPage(0x2000), "free page");
}

TEST(HostMm, GetUserPagesAllocates)
{
    PhysMem ram(0, kMiB);
    host::Mm mm(ram);
    Addr a = mm.getUserPages();
    EXPECT_EQ(mm.refcount(a), 1u);
}

/**
 * Reference model: the eager allocator Mm replaced. One free list holds
 * every frame in ascending order; allocation pops the back and a freed
 * frame is pushed on the back. Mm must hand out the same addresses.
 */
class EagerFreeList
{
  public:
    EagerFreeList(Addr base, std::size_t npages)
    {
        for (std::size_t i = 0; i < npages; ++i)
            free_.push_back(base + i * kPageSize);
    }

    Addr
    alloc()
    {
        Addr pa = free_.back();
        free_.pop_back();
        refs_[pa] = 1;
        return pa;
    }

    void get(Addr pa) { ++refs_.at(pa); }

    void
    put(Addr pa)
    {
        if (--refs_.at(pa) == 0) {
            refs_.erase(pa);
            free_.push_back(pa);
        }
    }

    std::size_t freePages() const { return free_.size(); }
    std::size_t liveCount() const { return refs_.size(); }

    /** The @p i-th live page in address order. */
    Addr
    live(std::size_t i) const
    {
        return std::next(refs_.begin(), i)->first;
    }

  private:
    std::vector<Addr> free_;
    std::map<Addr, unsigned> refs_;
};

/** One seeded mixed allocPage/putPage/getPage call on both allocators;
 *  allocation addresses and free counts must agree after every call.
 *  40% allocations, 10% gets and 50% puts keep the RAM partly free, so
 *  allocations keep mixing reused frames with fresh ones. */
void
stepBoth(Rng &rng, host::Mm &mm, EagerFreeList &model)
{
    std::uint64_t op = rng.range(10);
    if (model.liveCount() == 0 || (op < 4 && model.freePages() > 0)) {
        EXPECT_EQ(mm.allocPage(), model.alloc());
    } else {
        Addr pa = model.live(rng.range(model.liveCount()));
        if (op == 4) {
            mm.getPage(pa);
            model.get(pa);
        } else {
            mm.putPage(pa);
            model.put(pa);
        }
    }
    EXPECT_EQ(mm.freePages(), model.freePages());
    EXPECT_EQ(mm.usedPages(), model.liveCount());
}

constexpr Addr kModelBase = 0x40000000;
constexpr std::size_t kModelPages = 64;

TEST(HostMm, AllocationOrderMatchesEagerFreeList)
{
    PhysMem ram(kModelBase, kModelPages * kPageSize);
    host::Mm mm(ram);
    EagerFreeList model(kModelBase, kModelPages);
    EXPECT_EQ(mm.freePages(), kModelPages);
    Rng rng(14);
    for (int i = 0; i < 10000; ++i) {
        stepBoth(rng, mm, model);
        if (HasFailure())
            FAIL() << "diverged at call " << i;
    }
}

TEST(HostMm, ExhaustionIsFatalAtExactlyRamSize)
{
    PhysMem ram(kModelBase, kModelPages * kPageSize);
    host::Mm mm(ram);
    // Free one page back mid-way so both the freed stack and the
    // watermark are drained before the allocator runs dry.
    mm.putPage(mm.allocPage());
    for (std::size_t i = 0; i < kModelPages; ++i)
        mm.allocPage();
    EXPECT_EQ(mm.freePages(), 0u);
    EXPECT_EQ(mm.usedPages(), kModelPages);
    EXPECT_THROW(mm.allocPage(), FatalError);
}

TEST(HostMm, RestoredSnapshotContinuesWithIdenticalAddresses)
{
    PhysMem ram(kModelBase, kModelPages * kPageSize);
    host::Mm mm(ram);
    EagerFreeList model(kModelBase, kModelPages);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i)
        stepBoth(rng, mm, model);

    SnapshotWriter w;
    mm.snapshotSave(w);
    SnapshotRecord rec = w.finish("mm");
    PhysMem ram2(kModelBase, kModelPages * kPageSize);
    host::Mm clone(ram2);
    SnapshotReader r(rec);
    clone.snapshotLoad(r);
    ASSERT_TRUE(r.done()) << "restore left unread bytes";
    EXPECT_EQ(clone.freePages(), mm.freePages());
    EXPECT_EQ(clone.usedPages(), mm.usedPages());

    // Drive origin, clone and model with the same continuation.
    Rng rng2 = rng;
    EagerFreeList model2 = model;
    for (int i = 0; i < 2000; ++i) {
        stepBoth(rng, mm, model);
        stepBoth(rng2, clone, model2);
        if (HasFailure())
            FAIL() << "diverged at call " << i << " after restore";
    }
}

} // namespace
} // namespace kvmarm
