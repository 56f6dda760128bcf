/**
 * @file
 * Unit tests for the Stage-2 table manager (get_user_pages integration,
 * device mappings, refcounted teardown) and the Hyp memory manager
 * (Hyp-format tables, same-VA mapping, walkability from the Hyp regime).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "arm/machine.hh"
#include "arm/pagetable.hh"
#include "check/invariants.hh"
#include "core/hyp_mem.hh"
#include "core/stage2_mmu.hh"
#include "host/mm.hh"
#include "sim/snapshot.hh"

namespace kvmarm {
namespace {

using arm::ArmMachine;

class Stage2Test : public ::testing::Test
{
  protected:
    Stage2Test()
        : machine(ArmMachine::Config{.numCpus = 1,
                                     .ramSize = 64 * kMiB,
                                     .hwVgic = true,
                                     .hwVtimers = true,
                                     .clockHz = 1.7e9,
                                     .cost = {}}),
          mm(machine.ram(), &machine)
    {
    }

    /** Every Stage-2/Hyp page-table update was checked by the machine's
     *  engine, and none broke an invariant. */
    void
    TearDown() override
    {
        EXPECT_GT(machine.checkEngine()->eventCount(), 0u);
        EXPECT_EQ(machine.checkEngine()->violationCount(), 0u);
    }

    check::ScopedCheckMode checked{check::CheckMode::Log};
    ArmMachine machine;
    host::Mm mm;
};

TEST_F(Stage2Test, RamFaultAllocatesAndMaps)
{
    core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, 16 * kMiB);
    Addr ipa = ArmMachine::kRamBase + 0x3000;
    EXPECT_FALSE(s2.ipaToPa(ipa).has_value());
    EXPECT_TRUE(s2.handleRamFault(ipa));
    auto pa = s2.ipaToPa(ipa + 0x24);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa & 0xFFF, 0x24u);
    EXPECT_EQ(mm.refcount(*pa), 1u);
    EXPECT_EQ(s2.mappedRamPages(), 1u);
    // Idempotent on a racing second fault.
    EXPECT_TRUE(s2.handleRamFault(ipa));
    EXPECT_EQ(s2.mappedRamPages(), 1u);
}

TEST_F(Stage2Test, NonRamIpaIsMmio)
{
    core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, 16 * kMiB);
    EXPECT_FALSE(s2.handleRamFault(ArmMachine::kGicdBase));
    EXPECT_FALSE(
        s2.handleRamFault(ArmMachine::kRamBase + 16 * kMiB)); // past end
    EXPECT_TRUE(s2.isGuestRam(ArmMachine::kRamBase));
    EXPECT_FALSE(s2.isGuestRam(ArmMachine::kRamBase + 16 * kMiB));
}

TEST_F(Stage2Test, VttbrEncodesVmid)
{
    core::Stage2Mmu s2(mm, 7, ArmMachine::kRamBase, kMiB);
    EXPECT_EQ((s2.vttbr() >> 48) & 0xFF, 7u);
    EXPECT_NE(s2.vttbr() & arm::desc::kAddrMask, 0u);
}

TEST_F(Stage2Test, UnmapReleasesBacking)
{
    core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, kMiB);
    Addr ipa = ArmMachine::kRamBase;
    s2.handleRamFault(ipa);
    Addr pa = pageAlignDown(*s2.ipaToPa(ipa));
    EXPECT_TRUE(s2.unmapPage(ipa));
    EXPECT_EQ(mm.refcount(pa), 0u);
    EXPECT_FALSE(s2.ipaToPa(ipa).has_value());
    EXPECT_FALSE(s2.unmapPage(ipa));
}

TEST_F(Stage2Test, ReleaseAllReturnsTables)
{
    std::size_t free_before = mm.freePages();
    {
        core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, kMiB);
        for (Addr off = 0; off < 16 * kPageSize; off += kPageSize)
            s2.handleRamFault(ArmMachine::kRamBase + off);
        EXPECT_LT(mm.freePages(), free_before - 16); // + table pages
    }
    EXPECT_EQ(mm.freePages(), free_before);
}

SnapshotRecord
saveStage2(core::Stage2Mmu &s2)
{
    SnapshotWriter w;
    s2.snapshotSave(w);
    return w.finish(s2.snapshotKey());
}

void
restoreStage2(core::Stage2Mmu &s2, const SnapshotRecord &rec)
{
    SnapshotReader r(rec);
    s2.snapshotLoad(r);
    ASSERT_TRUE(r.done()) << "restore left unread bytes";
}

TEST_F(Stage2Test, RecordEndsWithRamMappingsAsAnIpaOrderedMap)
{
    // Faulted out of order, across 2 MiB boundaries, one unmapped again:
    // the record must still carry exactly what v.map() writes for an
    // IPA -> PA map (count, then pairs in ascending IPA order).
    core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, 4 * kMiB);
    const Addr base = ArmMachine::kRamBase;
    for (Addr off : {0x201000ull, 0x5000ull, 0x3FF000ull, 0x0ull,
                     0x200000ull, 0x1FF000ull})
        ASSERT_TRUE(s2.handleRamFault(base + off));
    ASSERT_TRUE(s2.unmapPage(base + 0x1FF000));
    EXPECT_EQ(s2.mappedRamPages(), 5u);

    std::map<Addr, Addr> expect;
    for (Addr off : {0x0ull, 0x5000ull, 0x200000ull, 0x201000ull,
                     0x3FF000ull})
        expect[base + off] = *s2.ipaToPa(base + off);
    SnapshotWriter w;
    w.map(expect);
    std::vector<std::uint8_t> tail = w.finish("expect").bytes;

    std::vector<std::uint8_t> bytes = saveStage2(s2).bytes;
    ASSERT_GE(bytes.size(), tail.size());
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                           bytes.end() - tail.size()));
}

TEST_F(Stage2Test, RestoreReplacesEveryRamMapping)
{
    core::Stage2Mmu a(mm, 5, ArmMachine::kRamBase, 4 * kMiB);
    core::Stage2Mmu b(mm, 5, ArmMachine::kRamBase, 4 * kMiB);
    const Addr base = ArmMachine::kRamBase;
    a.handleRamFault(base);
    a.handleRamFault(base + 0x201000);
    b.handleRamFault(base + 0x5000);
    SnapshotRecord rec_a = saveStage2(a);
    SnapshotRecord rec_b = saveStage2(b);

    ASSERT_NO_FATAL_FAILURE(restoreStage2(b, rec_a));
    EXPECT_EQ(b.mappedRamPages(), 2u);
    EXPECT_EQ(b.ipaToPa(base), a.ipaToPa(base));
    EXPECT_EQ(b.ipaToPa(base + 0x201000), a.ipaToPa(base + 0x201000));
    EXPECT_FALSE(b.ipaToPa(base + 0x5000).has_value());

    // Back to b's own state, so each instance releases its own pages.
    ASSERT_NO_FATAL_FAILURE(restoreStage2(b, rec_b));
    EXPECT_EQ(b.mappedRamPages(), 1u);
    EXPECT_TRUE(b.ipaToPa(base + 0x5000).has_value());
    EXPECT_FALSE(b.ipaToPa(base).has_value());
}

TEST_F(Stage2Test, HypMemMapsAtSameAddresses)
{
    core::HypMem hyp(machine, mm);
    hyp.build();
    hyp.build(); // idempotent
    arm::ArmCpu &cpu = machine.cpu(0);
    // Per-CPU Hyp enablement touches HTTBR/HSCTLR, so it runs in Hyp mode
    // (the real path gets there via the kInitCpu hypercall).
    cpu.setMode(arm::Mode::Hyp);
    hyp.enableOnCpu(cpu);
    cpu.setMode(arm::Mode::Svc);
    EXPECT_TRUE(cpu.hyp().hsctlrM);

    // Hyp VAs == kernel VAs for shared data (paper §3.1): a RAM address
    // translates to itself in the Hyp regime.
    machine.cpu(0).setEntry([&] {
        auto r = cpu.mmu().translate(ArmMachine::kRamBase + 0x123,
                                     arm::Access::Read, arm::Mode::Hyp);
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(r.pa, ArmMachine::kRamBase + 0x123);
        // And the GICH interface the world switch programs is reachable.
        auto g = cpu.mmu().translate(ArmMachine::kGichBase,
                                     arm::Access::Write, arm::Mode::Hyp);
        ASSERT_TRUE(g.ok);
        EXPECT_EQ(g.pa, ArmMachine::kGichBase);
        // ... as device memory: the Hyp table's leaf says so.
        arm::WalkResult w = arm::walkTable(
            cpu.hyp().httbr, ArmMachine::kGichBase, arm::PtFormat::HypLpae,
            [&](Addr table_pa) -> std::optional<std::uint64_t> {
                return machine.ram().read(table_pa, 8);
            });
        ASSERT_TRUE(w.ok());
        EXPECT_TRUE(w.perms.device);
    });
    machine.run();
}

} // namespace
} // namespace kvmarm
