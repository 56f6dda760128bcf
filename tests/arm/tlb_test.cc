/** @file TLB unit tests. */

#include <gtest/gtest.h>

#include "arm/tlb.hh"

namespace kvmarm::arm {
namespace {

TlbKey
key(std::uint8_t vmid, std::uint32_t asid, Addr vpage,
    TlbRegime regime = TlbRegime::Pl0Pl1)
{
    return TlbKey{regime, vmid, asid, vpage};
}

/** The entry a probe of @p k finds, or null. */
const TlbEntry *
lookup(const Tlb &tlb, const TlbKey &k)
{
    const Tlb::Probe p = tlb.probe(k);
    return p.hit != Tlb::kNone ? &tlb.entry(p.hit) : nullptr;
}

void
insert(Tlb &tlb, const TlbKey &k, const TlbEntry &e)
{
    tlb.insert(tlb.probe(k), k, e);
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb;
    TlbEntry e;
    e.ppage = 0x9000;
    insert(tlb, key(1, 2, 0x4000), e);
    const TlbEntry *hit = lookup(tlb, key(1, 2, 0x4000));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->ppage, 0x9000u);
}

TEST(Tlb, TagsDistinguishAsidAndVmid)
{
    Tlb tlb;
    insert(tlb, key(1, 1, 0x4000), {});
    EXPECT_EQ(lookup(tlb, key(1, 2, 0x4000)), nullptr); // other ASID
    EXPECT_EQ(lookup(tlb, key(2, 1, 0x4000)), nullptr); // other VMID
    EXPECT_EQ(lookup(tlb, key(1, 1, 0x5000)), nullptr); // other page
    EXPECT_EQ(lookup(tlb, key(1, 1, 0x4000, TlbRegime::Hyp)), nullptr);
}

TEST(Tlb, FlushVmidIsSelective)
{
    Tlb tlb;
    insert(tlb, key(1, 0, 0x1000), {});
    insert(tlb, key(2, 0, 0x2000), {});
    tlb.flushVmid(1);
    EXPECT_EQ(lookup(tlb, key(1, 0, 0x1000)), nullptr);
    EXPECT_NE(lookup(tlb, key(2, 0, 0x2000)), nullptr);
}

TEST(Tlb, FlushVaRemovesAllTags)
{
    Tlb tlb;
    insert(tlb, key(1, 1, 0x1000), {});
    insert(tlb, key(1, 2, 0x1000), {});
    insert(tlb, key(1, 1, 0x2000), {});
    tlb.flushVa(0x1000);
    EXPECT_EQ(lookup(tlb, key(1, 1, 0x1000)), nullptr);
    EXPECT_EQ(lookup(tlb, key(1, 2, 0x1000)), nullptr);
    EXPECT_NE(lookup(tlb, key(1, 1, 0x2000)), nullptr);
}

TEST(Tlb, FifoEvictionBoundsCapacity)
{
    Tlb tlb(4);
    for (Addr i = 0; i < 8; ++i)
        insert(tlb, key(0, 0, i * kPageSize), {});
    EXPECT_LE(tlb.size(), 4u);
    // Oldest evicted, newest present.
    EXPECT_EQ(lookup(tlb, key(0, 0, 0)), nullptr);
    EXPECT_NE(lookup(tlb, key(0, 0, 7 * kPageSize)), nullptr);
}

TEST(Tlb, ReinsertUpdatesInPlace)
{
    Tlb tlb(4);
    TlbEntry e1, e2;
    e1.ppage = 0x1000;
    e2.ppage = 0x2000;
    insert(tlb, key(0, 0, 0x4000), e1);
    insert(tlb, key(0, 0, 0x4000), e2);
    EXPECT_EQ(tlb.size(), 1u);
    EXPECT_EQ(lookup(tlb, key(0, 0, 0x4000))->ppage, 0x2000u);
}

TEST(Tlb, EvictionIsOldestFirstWithinSet)
{
    // One set, four ways: entries leave strictly in insertion order as
    // newer ones push them out.
    Tlb tlb(4);
    for (Addr i = 0; i < 4; ++i)
        insert(tlb, key(0, 0, i * kPageSize), {});
    for (Addr n = 0; n < 4; ++n) {
        insert(tlb, key(0, 0, (4 + n) * kPageSize), {});
        EXPECT_EQ(tlb.size(), 4u);
        // Ages 0..n evicted, n+1..4+n resident.
        for (Addr i = 0; i <= n; ++i)
            EXPECT_EQ(lookup(tlb, key(0, 0, i * kPageSize)), nullptr)
                << "entry " << i << " after " << n + 1 << " evictions";
        for (Addr i = n + 1; i <= 4 + n; ++i)
            EXPECT_NE(lookup(tlb, key(0, 0, i * kPageSize)), nullptr)
                << "entry " << i << " after " << n + 1 << " evictions";
    }
}

TEST(Tlb, FlushVmidLeavesOtherVmidsAndHypAlone)
{
    Tlb tlb;
    insert(tlb, key(1, 7, 0x1000), {});
    insert(tlb, key(1, 8, 0x2000), {});
    insert(tlb, key(2, 7, 0x3000), {});
    insert(tlb, key(0, 0, 0x4000, TlbRegime::Hyp), {});
    tlb.flushVmid(1);
    EXPECT_EQ(lookup(tlb, key(1, 7, 0x1000)), nullptr);
    EXPECT_EQ(lookup(tlb, key(1, 8, 0x2000)), nullptr);
    EXPECT_NE(lookup(tlb, key(2, 7, 0x3000)), nullptr);
    EXPECT_NE(lookup(tlb, key(0, 0, 0x4000, TlbRegime::Hyp)), nullptr);
    EXPECT_EQ(tlb.size(), 2u);
    // The flushed VMID can repopulate afterwards.
    insert(tlb, key(1, 7, 0x1000), {});
    EXPECT_NE(lookup(tlb, key(1, 7, 0x1000)), nullptr);
}

TEST(Tlb, FlushVaThenRemapServesNewMapping)
{
    Tlb tlb;
    TlbEntry old_map, new_map;
    old_map.ppage = 0xA000;
    new_map.ppage = 0xB000;
    insert(tlb, key(1, 1, 0x6000), old_map);
    ASSERT_EQ(lookup(tlb, key(1, 1, 0x6000))->ppage, 0xA000u);
    tlb.flushVa(0x6000);
    EXPECT_EQ(lookup(tlb, key(1, 1, 0x6000)), nullptr);
    insert(tlb, key(1, 1, 0x6000), new_map);
    ASSERT_NE(lookup(tlb, key(1, 1, 0x6000)), nullptr);
    EXPECT_EQ(lookup(tlb, key(1, 1, 0x6000))->ppage, 0xB000u);
}

TEST(Tlb, HitMissCountersTrackOutcomes)
{
    Tlb tlb;
    EXPECT_EQ(tlb.hits(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
    // Counters are maintained by the MMU (probe() itself is silent so
    // spill-over probes don't double count).
    tlb.countMiss();
    insert(tlb, key(1, 1, 0x1000), {});
    tlb.countHit();
    tlb.countHit();
    EXPECT_EQ(tlb.hits(), 2u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, FlushesInvalidateEverythingAndBumpEpoch)
{
    Tlb tlb;
    std::uint64_t e0 = tlb.epoch();
    insert(tlb, key(1, 1, 0x1000), {});
    insert(tlb, key(0, 0, 0x2000, TlbRegime::Hyp), {});
    EXPECT_EQ(tlb.size(), 2u);
    tlb.flushAll();
    EXPECT_GT(tlb.epoch(), e0);
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(lookup(tlb, key(1, 1, 0x1000)), nullptr);
    EXPECT_EQ(lookup(tlb, key(0, 0, 0x2000, TlbRegime::Hyp)), nullptr);

    // Epoch also moves on the events that can invalidate a cached copy of
    // an entry: in-place update, eviction, flushVa, flushVmid.
    std::uint64_t e1 = tlb.epoch();
    insert(tlb, key(1, 1, 0x1000), {});
    insert(tlb, key(1, 1, 0x1000), {}); // update in place
    EXPECT_GT(tlb.epoch(), e1);
    std::uint64_t e2 = tlb.epoch();
    tlb.flushVa(0x1000);
    EXPECT_GT(tlb.epoch(), e2);
    std::uint64_t e3 = tlb.epoch();
    tlb.flushVmid(1);
    EXPECT_GT(tlb.epoch(), e3);
}

TEST(Tlb, CapacityRoundsToSetsTimesWays)
{
    EXPECT_EQ(Tlb(256).capacity(), 256u);
    EXPECT_EQ(Tlb(4).capacity(), 4u);
    EXPECT_EQ(Tlb(1).capacity(), 1u);
    // Non-power-of-two set counts round down to a power of two.
    EXPECT_EQ(Tlb(24).capacity(), 16u);
}

} // namespace
} // namespace kvmarm::arm
