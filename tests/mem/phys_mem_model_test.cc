/**
 * @file
 * PhysMem against a reference model: seeded reads, writes, block copies and
 * page zeroing, then a snapshot, a restore into a fresh PhysMem and writes
 * on both sides of the copy-on-write split. After every step the bytes and
 * the page counters (COW faults, private, shared and touched pages) must
 * equal the model's.
 *
 * RAM is 6 MiB + 12 KiB at a nonzero base, so the last 2 MiB leaf of the
 * page map is partial; addresses are drawn half uniformly and half around
 * the first page, the last page and every 2 MiB boundary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/snapshot.hh"

namespace kvmarm {
namespace {

constexpr Addr kBase = 0x40000000;
constexpr Addr kSize = 6 * kMiB + 3 * kPageSize;
constexpr Addr kLeafBytes = 2 * kMiB;

/** What PhysMem should hold and count, kept the obvious way. */
struct Model
{
    /** Visible page contents; an absent frame reads as zero. */
    std::map<Addr, std::array<std::uint8_t, kPageSize>> pages;
    std::set<Addr> priv;  //!< frames this memory owns privately
    std::set<Addr> image; //!< frames of the snapshot image it reads through
    std::size_t shadowed = 0; //!< frames in both priv and image
    std::uint64_t cowFaults = 0;

    const std::array<std::uint8_t, kPageSize> *
    find(Addr frame) const
    {
        auto it = pages.find(frame);
        return it == pages.end() ? nullptr : &it->second;
    }

    void
    load(Addr pa, std::uint8_t *dst, Addr len) const
    {
        while (len > 0) {
            Addr frame = pageAlignDown(pa);
            Addr off = pa - frame;
            Addr chunk = std::min(len, kPageSize - off);
            if (const auto *pg = find(frame))
                std::memcpy(dst, pg->data() + off, chunk);
            else
                std::memset(dst, 0, chunk);
            pa += chunk;
            dst += chunk;
            len -= chunk;
        }
    }

    /** Note that @p frame now has a private page. */
    bool
    own(Addr frame)
    {
        if (!priv.insert(frame).second || !image.count(frame))
            return false;
        ++shadowed;
        return true;
    }

    std::array<std::uint8_t, kPageSize> &
    page(Addr frame)
    {
        auto [it, fresh] = pages.try_emplace(frame);
        if (fresh)
            it->second.fill(0);
        return it->second;
    }

    void
    store(Addr pa, const std::uint8_t *src, Addr len)
    {
        while (len > 0) {
            Addr frame = pageAlignDown(pa);
            Addr off = pa - frame;
            Addr chunk = std::min(len, kPageSize - off);
            // The first write to a frame materializes a private page; it
            // is a COW fault when the image holds the frame.
            if (own(frame))
                ++cowFaults;
            std::memcpy(page(frame).data() + off, src, chunk);
            pa += chunk;
            src += chunk;
            len -= chunk;
        }
    }

    void
    zero(Addr frame)
    {
        own(frame); // never a COW fault: nothing is copied
        page(frame).fill(0);
    }

    void
    snapshot()
    {
        image.insert(priv.begin(), priv.end());
        priv.clear();
        shadowed = 0;
    }

    std::size_t touched() const { return priv.size() + image.size() - shadowed; }
};

SnapshotRecord
save(PhysMem &mem)
{
    SnapshotWriter w;
    mem.snapshotSave(w);
    return w.finish(mem.snapshotKey());
}

void
restore(PhysMem &mem, const SnapshotRecord &rec)
{
    SnapshotReader r(rec);
    mem.snapshotLoad(r);
    ASSERT_TRUE(r.done()) << "restore left unread bytes";
}

::testing::AssertionResult
countersMatch(const PhysMem &mem, const Model &m)
{
    if (mem.cowFaults() != m.cowFaults)
        return ::testing::AssertionFailure()
               << "cowFaults " << mem.cowFaults() << " != " << m.cowFaults;
    if (mem.privatePages() != m.priv.size())
        return ::testing::AssertionFailure() << "privatePages "
               << mem.privatePages() << " != " << m.priv.size();
    if (mem.sharedPages() != m.image.size())
        return ::testing::AssertionFailure() << "sharedPages "
               << mem.sharedPages() << " != " << m.image.size();
    if (mem.touchedPages() != m.touched())
        return ::testing::AssertionFailure() << "touchedPages "
               << mem.touchedPages() << " != " << m.touched();
    return ::testing::AssertionSuccess();
}

/** Every page overlapping [pa, pa+len) reads back as the model has it. */
::testing::AssertionResult
pagesMatch(const PhysMem &mem, const Model &m, Addr pa, Addr len)
{
    static const std::array<std::uint8_t, kPageSize> kZero{};
    std::array<std::uint8_t, kPageSize> got;
    for (Addr f = pageAlignDown(pa); f < pa + len; f += kPageSize) {
        mem.readBlock(f, got.data(), kPageSize);
        const auto *want = m.find(f);
        if (!want)
            want = &kZero;
        if (got == *want)
            continue;
        for (Addr i = 0; i < kPageSize; ++i) {
            if (got[i] != (*want)[i])
                return ::testing::AssertionFailure()
                       << "byte at " << std::hex << (f + i) << " is "
                       << unsigned(got[i]) << ", model "
                       << unsigned((*want)[i]);
        }
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
allMatch(const PhysMem &mem, const Model &m)
{
    auto r = pagesMatch(mem, m, kBase, kSize);
    return r ? countersMatch(mem, m) : r;
}

/** An address with [pa, pa+span) inside RAM: half the time uniform, half
 *  the time within 24 bytes of the first page, the last page or a 2 MiB
 *  leaf boundary. */
Addr
pickAddr(Rng &rng, Addr span)
{
    Addr pa;
    if (rng.chance(0.5)) {
        pa = kBase + rng.range(kSize);
    } else {
        std::vector<Addr> spots{kBase, kBase + kSize - kPageSize,
                                kBase + kSize};
        for (Addr b = kBase + kLeafBytes; b < kBase + kSize; b += kLeafBytes)
            spots.push_back(b);
        Addr spot = spots[rng.range(spots.size())];
        pa = spot + rng.range(48) - 24;
    }
    if (pa < kBase)
        pa = kBase;
    if (pa + span > kBase + kSize)
        pa = kBase + kSize - span;
    return pa;
}

/** One seeded operation on @p mem and @p m; returns a failure if the
 *  memory and the model then disagree. */
::testing::AssertionResult
step(Rng &rng, PhysMem &mem, Model &m)
{
    static constexpr unsigned kLens[] = {1, 2, 4, 8};
    std::uint64_t op = rng.range(100);
    if (op < 30) {
        unsigned len = kLens[rng.range(4)];
        Addr pa = pickAddr(rng, len);
        if (rng.chance(0.5))
            pa &= ~Addr(len - 1);
        std::uint64_t want = 0;
        m.load(pa, reinterpret_cast<std::uint8_t *>(&want), len);
        std::uint64_t got = mem.read(pa, len);
        if (got != want)
            return ::testing::AssertionFailure()
                   << "read(" << std::hex << pa << ", " << len << ") = "
                   << got << ", model " << want;
        return countersMatch(mem, m);
    }
    if (op < 60) {
        unsigned len = kLens[rng.range(4)];
        Addr pa = pickAddr(rng, len);
        if (rng.chance(0.5))
            pa &= ~Addr(len - 1);
        std::uint64_t v = rng.next();
        mem.write(pa, v, len);
        std::uint8_t bytes[8];
        std::memcpy(bytes, &v, sizeof(bytes));
        m.store(pa, bytes, len);
        auto r = pagesMatch(mem, m, pa, len);
        return r ? countersMatch(mem, m) : r;
    }
    Addr len = 1 + rng.range(3 * kPageSize);
    if (op < 75) {
        Addr pa = pickAddr(rng, len);
        std::vector<std::uint8_t> got(len), want(len);
        mem.readBlock(pa, got.data(), len);
        m.load(pa, want.data(), len);
        if (got != want)
            return ::testing::AssertionFailure()
                   << "readBlock(" << std::hex << pa << ", " << len << ")";
        return countersMatch(mem, m);
    }
    if (op < 90) {
        Addr pa = pickAddr(rng, len);
        std::vector<std::uint8_t> in(len);
        for (std::uint8_t &b : in)
            b = static_cast<std::uint8_t>(rng.next());
        mem.writeBlock(pa, in.data(), len);
        m.store(pa, in.data(), len);
        auto r = pagesMatch(mem, m, pa, len);
        return r ? countersMatch(mem, m) : r;
    }
    Addr frame = pageAlignDown(pickAddr(rng, kPageSize));
    mem.zeroPage(frame);
    m.zero(frame);
    auto r = pagesMatch(mem, m, frame, kPageSize);
    return r ? countersMatch(mem, m) : r;
}

TEST(PhysMemModel, SeededOpsMatchReferenceThroughSnapshotAndClones)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);

        PhysMem origin(kBase, kSize);
        Model om;
        for (int i = 0; i < 20000; ++i)
            ASSERT_TRUE(step(rng, origin, om)) << "origin step " << i;
        ASSERT_TRUE(allMatch(origin, om));

        SnapshotRecord rec = save(origin);
        om.snapshot();
        ASSERT_TRUE(allMatch(origin, om));
        const std::uint64_t cowAtSnapshot = om.cowFaults;

        // A fresh memory's own writes before the restore are superseded
        // by the image.
        PhysMem clone(kBase, kSize);
        clone.write(kBase, 0xFF, 1);
        clone.write(kBase + kSize - 8, ~std::uint64_t(0), 8);
        ASSERT_NO_FATAL_FAILURE(restore(clone, rec));
        Model cm = om; // same image, same COW count, nothing private
        ASSERT_TRUE(allMatch(clone, cm));

        // Origin and clone now diverge through their own COW faults.
        for (int i = 0; i < 5000; ++i) {
            ASSERT_TRUE(step(rng, clone, cm)) << "clone step " << i;
            ASSERT_TRUE(step(rng, origin, om)) << "origin step " << i;
        }
        ASSERT_TRUE(allMatch(clone, cm));
        ASSERT_TRUE(allMatch(origin, om));
        EXPECT_GT(cm.cowFaults, cowAtSnapshot);
        EXPECT_GT(om.cowFaults, cowAtSnapshot);

        // Clone of the clone: the second image flattens the first.
        SnapshotRecord rec2 = save(clone);
        cm.snapshot();
        PhysMem grandchild(kBase, kSize);
        ASSERT_NO_FATAL_FAILURE(restore(grandchild, rec2));
        Model gm = cm;
        ASSERT_TRUE(allMatch(grandchild, gm));
        for (int i = 0; i < 2000; ++i) {
            ASSERT_TRUE(step(rng, grandchild, gm)) << "grandchild step " << i;
            ASSERT_TRUE(step(rng, clone, cm)) << "clone step " << i;
        }
        ASSERT_TRUE(allMatch(grandchild, gm));
        ASSERT_TRUE(allMatch(clone, cm));
        ASSERT_TRUE(allMatch(origin, om));
    }
}

TEST(PhysMemModel, AccessesOutsideRamPanic)
{
    PhysMem mem(kBase, kSize);
    std::uint8_t buf[16] = {};
    EXPECT_DEATH(mem.read(kBase - 1, 1), "outside RAM");
    EXPECT_DEATH(mem.read(kBase + kSize, 1), "outside RAM");
    EXPECT_DEATH(mem.read(kBase + kSize - 4, 8), "outside RAM");
    EXPECT_DEATH(mem.write(kBase + kSize - 1, 0, 2), "outside RAM");
    EXPECT_DEATH(mem.readBlock(kBase + kSize - 8, buf, 16), "outside RAM");
    EXPECT_DEATH(mem.writeBlock(kBase - 8, buf, 16), "outside RAM");
    EXPECT_DEATH(mem.zeroPage(kBase + kSize), "outside RAM");
}

} // namespace
} // namespace kvmarm
