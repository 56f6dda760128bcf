/**
 * @file
 * MMU translation tests: Stage-1 regimes, Stage-2, the nested (2D) case,
 * permission checks per privilege, and TLB interaction.
 */

#include <gtest/gtest.h>

#include "arm/machine.hh"

namespace kvmarm::arm {
namespace {

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 64 * kMiB;
        machine = std::make_unique<ArmMachine>(mc);
        next = ArmMachine::kRamBase + 48 * kMiB;
    }

    Addr
    allocPage()
    {
        next -= kPageSize;
        machine->ram().zeroPage(next);
        return next;
    }

    PageTableEditor
    editorFor(PtFormat fmt)
    {
        return PageTableEditor(
            fmt, [this](Addr pa) { return machine->ram().read(pa, 8); },
            [this](Addr pa, std::uint64_t v) {
                machine->ram().write(pa, v, 8);
            },
            [this] { return allocPage(); });
    }

    ArmCpu &cpu() { return machine->cpu(0); }

    /** Enable Stage-1 with @p root on the CPU. */
    void
    enableS1(Addr root)
    {
        cpu().regs().write64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, root);
        cpu().regs()[CtrlReg::TTBCR] = 0;
        cpu().regs()[CtrlReg::CONTEXTIDR] = 1;
        cpu().regs()[CtrlReg::SCTLR] |= 1;
    }

    void
    enableS2(Addr root)
    {
        cpu().hyp().vttbr = root | (3ull << 48);
        cpu().hyp().hcr.vm = true;
    }

    std::unique_ptr<ArmMachine> machine;
    Addr next;
};

TEST_F(MmuTest, MmuOffIsIdentity)
{
    TranslateResult r =
        cpu().mmu().translate(0x80001234, Access::Read, Mode::Svc);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.pa, 0x80001234u);
}

TEST_F(MmuTest, Stage1OnlyTranslates)
{
    auto ed = editorFor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms p;
    p.user = false;
    ed.map(root, 0x00400000, ArmMachine::kRamBase + 0x1000, p);
    enableS1(root);

    TranslateResult r =
        cpu().mmu().translate(0x00400040, Access::Read, Mode::Svc);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.pa, ArmMachine::kRamBase + 0x1040);
    EXPECT_GT(r.cost, 0u); // walk charged

    // Second access hits the TLB: no walk cost.
    r = cpu().mmu().translate(0x00400080, Access::Read, Mode::Svc);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.cost, 0u);
}

TEST_F(MmuTest, UserCannotTouchKernelMappings)
{
    auto ed = editorFor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms kernel_only;
    kernel_only.user = false;
    ed.map(root, 0x00400000, ArmMachine::kRamBase, kernel_only);
    enableS1(root);

    TranslateResult r =
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Usr);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.stage2);
    EXPECT_EQ(r.fault, FaultType::Permission);

    // The same VA works from kernel mode.
    EXPECT_TRUE(
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc).ok);
}

TEST_F(MmuTest, WriteToReadOnlyFaults)
{
    auto ed = editorFor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms ro;
    ro.user = true;
    ro.write = false;
    ed.map(root, 0x00400000, ArmMachine::kRamBase, ro);
    enableS1(root);

    EXPECT_TRUE(
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Usr).ok);
    TranslateResult w =
        cpu().mmu().translate(0x00400000, Access::Write, Mode::Usr);
    EXPECT_FALSE(w.ok);
    EXPECT_EQ(w.fault, FaultType::Permission);
}

TEST_F(MmuTest, Stage2OnlyTranslates)
{
    auto s2 = editorFor(PtFormat::Stage2);
    Addr root = s2.newRoot();
    Perms p;
    p.user = true;
    s2.map(root, ArmMachine::kRamBase, ArmMachine::kRamBase + 0x5000, p);
    enableS2(root);

    // Guest MMU off: VA == IPA, Stage-2 translates IPA -> PA.
    TranslateResult r =
        cpu().mmu().translate(ArmMachine::kRamBase + 0x10, Access::Read,
                              Mode::Svc);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.pa, ArmMachine::kRamBase + 0x5010);
}

TEST_F(MmuTest, Stage2FaultReportsIpa)
{
    auto s2 = editorFor(PtFormat::Stage2);
    enableS2(s2.newRoot());

    TranslateResult r = cpu().mmu().translate(
        ArmMachine::kRamBase + 0x2000, Access::Write, Mode::Svc);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.stage2);
    EXPECT_EQ(r.fault, FaultType::Translation);
    EXPECT_EQ(r.faultAddr, ArmMachine::kRamBase + 0x2000);
}

TEST_F(MmuTest, NestedWalkTranslatesTablesThroughStage2)
{
    // Guest Stage-1 tables live in guest IPA space; every table fetch of
    // the Stage-1 walk must itself be Stage-2 translated (the 2D walk).
    auto s2 = editorFor(PtFormat::Stage2);
    Addr s2root = s2.newRoot();
    Perms all;
    all.user = true;
    // Identity Stage-2 for the RAM region holding the tables + data.
    for (Addr off = 0; off < 8 * kMiB; off += kPageSize) {
        s2.map(s2root, ArmMachine::kRamBase + off,
               ArmMachine::kRamBase + off, all);
    }
    // Also map where this fixture's allocator places table pages.
    for (Addr off = 0; off < 4 * kMiB; off += kPageSize) {
        Addr pa = ArmMachine::kRamBase + 48 * kMiB - 4 * kMiB + off;
        s2.map(s2root, pa, pa, all);
    }

    auto s1 = editorFor(PtFormat::KernelLpae);
    Addr s1root = s1.newRoot();
    Perms user;
    user.user = true;
    s1.map(s1root, 0x00400000, ArmMachine::kRamBase + 0x3000, user);

    enableS1(s1root);
    enableS2(s2root);

    TranslateResult r =
        cpu().mmu().translate(0x00400008, Access::Read, Mode::Usr);
    ASSERT_TRUE(r.ok) << faultTypeName(r.fault) << " stage2=" << r.stage2;
    EXPECT_EQ(r.pa, ArmMachine::kRamBase + 0x3008);
    // The 2D walk did far more memory accesses than a bare S1 walk.
    EXPECT_GT(r.cost, 3 * (Bus::kRamLatency + 8));
}

TEST_F(MmuTest, HypRegimeUsesHypTables)
{
    auto hyp = editorFor(PtFormat::HypLpae);
    Addr root = hyp.newRoot();
    Perms p;
    p.user = false;
    hyp.map(root, 0x00400000, ArmMachine::kRamBase + 0x6000, p);
    cpu().hyp().httbr = root;
    cpu().hyp().hsctlrM = true;

    TranslateResult r =
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Hyp);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.pa, ArmMachine::kRamBase + 0x6000);

    // The same VA in the kernel regime is unrelated (separate address
    // space, paper §3.1).
    TranslateResult k =
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc);
    EXPECT_EQ(k.pa, 0x00400000u); // kernel MMU off -> identity
}

TEST_F(MmuTest, TlbiVaDropsOneTranslation)
{
    auto ed = editorFor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms p;
    p.user = true;
    ed.map(root, 0x00400000, ArmMachine::kRamBase, p);
    ed.map(root, 0x00401000, ArmMachine::kRamBase + 0x1000, p);
    enableS1(root);

    cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc);
    cpu().mmu().translate(0x00401000, Access::Read, Mode::Svc);
    cpu().tlbiVa(0x00400000);

    EXPECT_GT(
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc).cost,
        0u); // re-walk
    EXPECT_EQ(
        cpu().mmu().translate(0x00401000, Access::Read, Mode::Svc).cost,
        0u); // still cached
}

TEST_F(MmuTest, RemapPlusTlbiVaWalksToTheNewFrame)
{
    // A TLB hit must never serve a translation the tables no longer
    // produce once it is invalidated: remap a page that was just accessed
    // (so its slot hits), invalidate it, and check the new frame is
    // returned by a walk.
    auto ed = editorFor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms p;
    p.user = true;
    ed.map(root, 0x00400000, ArmMachine::kRamBase, p);
    enableS1(root);

    // Two back-to-back accesses: the second is a TLB hit.
    ASSERT_EQ(cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc).pa,
              ArmMachine::kRamBase);
    ASSERT_EQ(cpu().mmu().translate(0x00400010, Access::Read, Mode::Svc).pa,
              ArmMachine::kRamBase + 0x10);

    ed.map(root, 0x00400000, ArmMachine::kRamBase + 0x3000, p);
    cpu().tlbiVa(0x00400000);

    TranslateResult r =
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.pa, ArmMachine::kRamBase + 0x3000);
    EXPECT_GT(r.cost, 0u); // walked: nothing cached survived the TLBI
}

TEST_F(MmuTest, FlushAllForcesAWalk)
{
    auto ed = editorFor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms p;
    p.user = true;
    ed.map(root, 0x00400000, ArmMachine::kRamBase, p);
    enableS1(root);

    cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc);
    cpu().mmu().translate(0x00400020, Access::Read, Mode::Svc);

    cpu().mmu().tlb().flushAll();
    EXPECT_GT(
        cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc).cost,
        0u); // full walk, not a stale hit
}

TEST_F(MmuTest, HitMissCountersCountEveryTranslation)
{
    // Each translation counts exactly one hit or one miss, whether it
    // repeats the last page or returns to an earlier one.
    auto ed = editorFor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms p;
    p.user = true;
    ed.map(root, 0x00400000, ArmMachine::kRamBase, p);
    ed.map(root, 0x00401000, ArmMachine::kRamBase + 0x1000, p);
    enableS1(root);

    Tlb &tlb = cpu().mmu().tlb();
    std::uint64_t h0 = tlb.hits(), m0 = tlb.misses();

    cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc); // miss
    cpu().mmu().translate(0x00400004, Access::Read, Mode::Svc); // hit
    cpu().mmu().translate(0x00400008, Access::Read, Mode::Svc); // hit
    cpu().mmu().translate(0x00401000, Access::Read, Mode::Svc); // miss
    cpu().mmu().translate(0x00400000, Access::Read, Mode::Svc); // hit

    EXPECT_EQ(tlb.hits() - h0, 3u);
    EXPECT_EQ(tlb.misses() - m0, 2u);
}

} // namespace
} // namespace kvmarm::arm
