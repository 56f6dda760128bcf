/**
 * @file
 * Guest RAM and devices through the TLB's slot views (DESIGN.md §4.6, "TLB
 * slot views"). A KVM guest's loads and stores that take the fast path
 * must see exactly the bytes the full path would. Every value read here is
 * checked against a byte model that the test keeps and that shares no code
 * with the simulator. The checks run across each event that must end a
 * view: a Stage-1 remap plus TLBI, an ASID or VMID switch, a Stage-2
 * unmap plus TLB flush, TLB evictions, an event inside a walk charge, a
 * snapshot and the COW faults after it, a restore, and clones reading one
 * image on fleet workers. Accesses that cross a page reach both guest
 * pages. Device views reach only their own region, and a restore clears
 * every view.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/kvm_stack.hh"
#include "mem/bus.hh"
#include "sim/fleet.hh"
#include "sim/random.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::CtrlReg;

constexpr Addr kGuestRam = 16 * kMiB;
constexpr Addr kRamIpa = ArmMachine::kRamBase;
/** Data pages at the bottom of guest RAM, identity mapped. */
constexpr unsigned kDataPages = 24;
/** Page-table pages, identity mapped so the guest can edit its tables. */
constexpr Addr kTableIpa = kRamIpa + 4 * kMiB;
constexpr unsigned kTablePages = 64;
/** The VM's GICC address: Stage-2 maps it to the physical GICV. */
constexpr Addr kGiccIpa = ArmMachine::kGiccBase;

/**
 * Remappable windows. VA pages 64 pages apart share a set of the default
 * 64-set, 4-way TLB, so windows 0-7 fill one set twice over and 8-15 the
 * next one.
 */
constexpr unsigned kWindows = 16;
constexpr Addr kWindowVa = 0x40000000;
constexpr Addr kSetStride = 64 * kPageSize;

Addr
windowVa(unsigned j)
{
    return kWindowVa + (j / 8) * kPageSize + (j % 8) * kSetStride;
}

Addr
dataIpa(unsigned page)
{
    return kRamIpa + Addr(page) * kPageSize;
}

/** What the test wrote: guest RAM bytes by IPA and the window mappings. */
struct Model
{
    std::map<Addr, std::uint8_t> bytes; //!< absent: 0
    /** IPA page each window maps, per ASID (kGiccIpa: the device). */
    std::array<std::array<Addr, kWindows>, 2> window{};
    std::array<Addr, 2> root{}; //!< Stage-1 root per ASID
    unsigned asid = 0;          //!< index: CONTEXTIDR is asid + 1

    std::uint64_t
    load(Addr ipa, unsigned len) const
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < len; ++i) {
            auto it = bytes.find(ipa + i);
            v |= std::uint64_t(it == bytes.end() ? 0 : it->second) << (8 * i);
        }
        return v;
    }

    void
    store(Addr ipa, std::uint64_t v, unsigned len)
    {
        for (unsigned i = 0; i < len; ++i)
            bytes[ipa + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    void
    zeroPage(Addr page)
    {
        bytes.erase(bytes.lower_bound(page), bytes.lower_bound(page + kPageSize));
    }
};

class NullGuestOs : public arm::OsVectors
{
  public:
    void irq(ArmCpu &) override {}
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "null-guest"; }
};

/**
 * A KVM stack with one 1-VCPU VM whose guest kernel runs with Stage-1 on:
 * two roots (ASIDs 1 and 2), each identity mapping the data pages, the
 * table pages and the GICC page and mapping every window. A cold-booted
 * rig builds all that; a clone adopts it from a snapshot.
 */
class Rig
{
  public:
    /** Cold boot; every window of ASID a maps data page (j + 8a) % 24. */
    explicit Rig(Model &m)
    {
        stack.onCpu(0, [&](ArmCpu &cpu) {
            buildSkeleton();
            vcpu->run(cpu, [&](ArmCpu &c) {
                cpu_ = &c;
                setUpStage1(c, m);
            });
        });
        stack.machine.run();
    }

    /** A clone of @p snap. */
    explicit Rig(const MachineSnapshot &snap)
    {
        stack.kvm.primeForRestore();
        buildSkeleton();
        stack.machine.restoreSnapshot(snap);
    }

    /** Run @p body as the guest kernel. */
    void
    guest(const std::function<void(ArmCpu &)> &body)
    {
        stack.machine.cpu(0).setEntry([&] {
            vcpu->run(stack.machine.cpu(0), [&](ArmCpu &c) {
                cpu_ = &c;
                body(c);
            });
        });
        stack.machine.run();
    }

    /** Point window @p j of the current ASID at @p ipa_page and TLBI it,
     *  as a guest kernel remaps a page. */
    void
    remap(ArmCpu &c, Model &m, unsigned j, Addr ipa_page)
    {
        arm::Perms p;
        p.device = ipa_page == kGiccIpa;
        editor().map(m.root[m.asid], windowVa(j), ipa_page, p);
        c.tlbiVa(windowVa(j));
        m.window[m.asid][j] = ipa_page;
    }

    /** Switch to the other ASID's address space (no TLB flush). */
    static void
    switchAsid(ArmCpu &c, Model &m)
    {
        m.asid ^= 1;
        c.writeCp15(CtrlReg::CONTEXTIDR, m.asid + 1);
        c.writeCp15_64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, m.root[m.asid]);
    }

    /** The highvisor unmaps data page @p page from Stage-2 and flushes
     *  the VM's TLB entries; the next touch faults in a zeroed page. */
    void
    unmapData(Model &m, unsigned page)
    {
        stack.machine.cpu(0).setEntry([&] {
            ASSERT_TRUE(vm->stage2().unmapPage(dataIpa(page)));
            stack.machine.cpu(0).mmu().tlb().flushVmid(
                static_cast<std::uint8_t>(vm->vmid()));
        });
        stack.machine.run();
        m.zeroPage(dataIpa(page));
    }

    arm::Tlb &tlb() { return stack.machine.cpu(0).mmu().tlb(); }
    PhysMem &ram() { return stack.machine.ram(); }
    std::uint64_t stage2Faults() { return vcpu->stats.counterValue("fault.stage2"); }

    core::KvmStack stack{{.numCpus = 1, .ramSize = 64 * kMiB, .kvm = {}}};
    std::unique_ptr<core::Vm> vm;
    core::VCpu *vcpu = nullptr;

  private:
    void
    buildSkeleton()
    {
        vm = stack.kvm.createVm(kGuestRam);
        vcpu = &vm->addVcpu(0);
        vcpu->setGuestOs(&os_);
    }

    arm::PageTableEditor
    editor()
    {
        return arm::PageTableEditor(
            arm::PtFormat::KernelLpae,
            [this](Addr pa) { return cpu_->memRead(pa, 8); },
            [this](Addr pa, std::uint64_t v) { cpu_->memWrite(pa, v, 8); },
            [this]() -> Addr {
                if (nextTable_ >= kTableIpa + kTablePages * kPageSize)
                    ADD_FAILURE() << "page-table region exhausted";
                Addr pg = nextTable_;
                nextTable_ += kPageSize;
                return pg; // never touched yet: Stage-2 faults in zeroes
            });
    }

    /** With Stage-1 still off (VA == IPA), build both roots, then turn
     *  Stage-1 on in ASID 1. */
    void
    setUpStage1(ArmCpu &c, Model &m)
    {
        arm::PageTableEditor ed = editor();
        arm::Perms device;
        device.device = true;
        for (unsigned a = 0; a < 2; ++a) {
            m.root[a] = ed.newRoot();
            for (unsigned p = 0; p < kDataPages; ++p)
                ed.map(m.root[a], dataIpa(p), dataIpa(p), {});
            for (unsigned p = 0; p < kTablePages; ++p) {
                Addr t = kTableIpa + Addr(p) * kPageSize;
                ed.map(m.root[a], t, t, {});
            }
            ed.map(m.root[a], kGiccIpa, kGiccIpa, device);
            for (unsigned j = 0; j < kWindows; ++j) {
                m.window[a][j] = dataIpa((j + 8 * a) % kDataPages);
                ed.map(m.root[a], windowVa(j), m.window[a][j], {});
            }
        }
        c.writeCp15(CtrlReg::TTBCR, 0);
        c.writeCp15_64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, m.root[0]);
        c.writeCp15(CtrlReg::CONTEXTIDR, 1);
        c.writeCp15(CtrlReg::SCTLR, c.readCp15(CtrlReg::SCTLR) | 1);
        m.asid = 0;
    }

    NullGuestOs os_;
    ArmCpu *cpu_ = nullptr;
    Addr nextTable_ = kTableIpa;
};

/**
 * Leave windows 0-3, which share one TLB set, as that set's four valid
 * slots, each with a host page: flush the VM's entries, then load through
 * them until entries of other VMIDs have been evicted too.
 */
void
fillWindowSet(ArmCpu &c)
{
    c.tlbiAll();
    for (int pass = 0; pass < 6; ++pass) {
        for (unsigned j = 0; j < 4; ++j)
            c.memRead(windowVa(j), 4);
    }
}

/** A load of @p len bytes at window @p j + @p off, checked. */
void
expectWindowLoad(ArmCpu &c, const Model &m, unsigned j, Addr off,
                 unsigned len)
{
    Addr ipa = m.window[m.asid][j];
    ASSERT_NE(ipa, kGiccIpa);
    EXPECT_EQ(c.memRead(windowVa(j) + off, len), m.load(ipa + off, len))
        << "window " << j << " +" << off << " len " << len << " asid "
        << m.asid + 1;
}

void
windowStore(ArmCpu &c, Model &m, unsigned j, Addr off, std::uint64_t v,
            unsigned len)
{
    c.memWrite(windowVa(j) + off, v, len);
    m.store(m.window[m.asid][j] + off, v, len);
}

TEST(GuestRamFastPath, RemapPlusTlbiVaReadsTheNewPage)
{
    Model m;
    Rig rig(m);
    rig.guest([&](ArmCpu &c) {
        windowStore(c, m, 0, 0x10, 0x1111111111111111ull, 8);
        // Window 1 maps another page: give it other bytes.
        c.memWrite(m.window[0][1] + 0x10, 0x2222222222222222ull, 8);
        m.store(m.window[0][1] + 0x10, 0x2222222222222222ull, 8);
        for (int i = 0; i < 3; ++i) // warm the pointer, then hit it
            expectWindowLoad(c, m, 0, 0x10, 8);
        rig.remap(c, m, 0, m.window[0][1]);
        for (int i = 0; i < 3; ++i)
            expectWindowLoad(c, m, 0, 0x10, 8);
        // A store through the remapped window lands in the new page.
        windowStore(c, m, 0, 0x18, 0x33, 1);
        EXPECT_EQ(c.memRead(m.window[0][1] + 0x18, 1), 0x33u);
    });
}

TEST(GuestRamFastPath, RemapToADeviceReachesTheDevice)
{
    Model m;
    Rig rig(m);
    rig.guest([&](ArmCpu &c) {
        const Addr pmr = kGiccIpa + arm::gicc::PMR;
        windowStore(c, m, 2, arm::gicc::PMR, 0xDEADBEEF, 4);
        // Window 2's slot, the only one its TLBI leaves invalid in the
        // set, is where the device entry goes.
        fillWindowSet(c);
        expectWindowLoad(c, m, 2, arm::gicc::PMR, 4);
        rig.remap(c, m, 2, kGiccIpa);
        c.memWrite(pmr, 0xA0, 4);
        const std::uint64_t want = c.memRead(pmr, 4);
        ASSERT_NE(want, 0xDEADBEEFu);
        // Twice: the first access inserts the device entry, the second
        // must not find a RAM pointer left in its slot.
        EXPECT_EQ(c.memRead(windowVa(2) + arm::gicc::PMR, 4), want);
        EXPECT_EQ(c.memRead(windowVa(2) + arm::gicc::PMR, 4), want);
    });
}

TEST(GuestRamFastPath, EvictionByADeviceEntryDropsThePointer)
{
    Model m;
    Rig rig(m);
    rig.guest([&](ArmCpu &c) {
        // Windows 0-4 share one TLB set. Point window 4 at the device and
        // fill the set with windows 0-3 and their RAM pointers; window 4
        // then evicts one of them.
        rig.remap(c, m, 4, kGiccIpa);
        const Addr pmr = kGiccIpa + arm::gicc::PMR;
        c.memWrite(pmr, 0x80, 4);
        const std::uint64_t want = c.memRead(pmr, 4);
        for (unsigned j = 0; j < 4; ++j)
            windowStore(c, m, j, arm::gicc::PMR, 0xC0DE0000u + j, 4);
        fillWindowSet(c);
        for (unsigned j = 0; j < 4; ++j)
            expectWindowLoad(c, m, j, arm::gicc::PMR, 4);
        EXPECT_EQ(c.memRead(windowVa(4) + arm::gicc::PMR, 4), want);
        EXPECT_EQ(c.memRead(windowVa(4) + arm::gicc::PMR, 4), want);
        for (unsigned j = 0; j < 4; ++j)
            expectWindowLoad(c, m, j, arm::gicc::PMR, 4);
    });
}

TEST(GuestRamFastPath, AnEventInTheWalkChargeLeavesNoWrongView)
{
    // An event that runs inside a miss's walk charge and changes the TLB
    // stops the access from filling its slot's view: the slot may hold
    // another key by then. Windows 0-7 share one TLB set. Run twice: with
    // window 6 on RAM, and with window 6 on the GICC, where a RAM view
    // left in its slot would serve RAM bytes for the device.
    for (bool device : {false, true}) {
        SCOPED_TRACE(device ? "window 6 on the GICC" : "window 6 on RAM");
        Model m;
        Rig rig(m);
        rig.guest([&](ArmCpu &c) {
            const Addr off = device ? arm::gicc::PMR : 0x20;
            for (unsigned j = 0; j < 7; ++j)
                windowStore(c, m, j, off, 0xF000u + j, 4);
            std::uint64_t want6 = 0;
            if (device) {
                rig.remap(c, m, 6, kGiccIpa);
                c.memWrite(kGiccIpa + off, 0xA0, 4);
                want6 = c.memRead(kGiccIpa + off, 4);
                ASSERT_NE(want6, 0xF005u);
            }
            auto expect6 = [&] {
                if (device)
                    EXPECT_EQ(c.memRead(windowVa(6) + off, 4), want6);
                else
                    expectWindowLoad(c, m, 6, off, 4);
            };
            fillWindowSet(c);
            arm::Tlb &tlb = c.mmu().tlb();
            // Window 4 refills window 0's slot while the event flushes an
            // unrelated page: the slot must not keep window 0's view.
            c.tlbiVa(windowVa(0));
            c.events().schedule(c.now() + 1, [&tlb] {
                tlb.flushVa(pageAlignDown(windowVa(9)));
            });
            expectWindowLoad(c, m, 4, off, 4);
            expectWindowLoad(c, m, 4, off, 4);
            // Window 5 misses into window 1's slot; the event drops it and
            // window 6 takes the slot. Window 5's page must not become the
            // view of window 6's slot.
            c.tlbiVa(windowVa(1));
            c.events().schedule(c.now() + 1, [&c, &tlb, off] {
                tlb.flushVa(pageAlignDown(windowVa(5)));
                c.memRead(windowVa(6) + off, 4);
            });
            expectWindowLoad(c, m, 5, off, 4);
            expect6();
            expect6();
        });
    }
}

TEST(GuestRamFastPath, AsidSwitchNeverServesTheOtherAddressSpace)
{
    Model m;
    Rig rig(m);
    rig.guest([&](ArmCpu &c) {
        // ASID 1's window 3 and ASID 2's window 3 map different pages.
        ASSERT_NE(m.window[0][3], m.window[1][3]);
        windowStore(c, m, 3, 0x40, 0xAAAA5555AAAA5555ull, 8);
        expectWindowLoad(c, m, 3, 0x40, 8);
        for (int round = 0; round < 4; ++round) {
            Rig::switchAsid(c, m);
            expectWindowLoad(c, m, 3, 0x40, 8);
            expectWindowLoad(c, m, 3, 0x40, 8);
            windowStore(c, m, 3, 0x48, 0x1000u + round, 2);
            expectWindowLoad(c, m, 3, 0x48, 2);
        }
    });
}

TEST(GuestRamFastPath, VmidSwitchNeverServesTheOtherVm)
{
    Model m;
    Rig rig(m);
    NullGuestOs os;
    std::unique_ptr<core::Vm> other;
    core::VCpu *other_vcpu = nullptr;
    rig.stack.machine.cpu(0).setEntry([&] {
        other = rig.stack.kvm.createVm(kGuestRam);
        other_vcpu = &other->addVcpu(0);
        other_vcpu->setGuestOs(&os);
    });
    rig.stack.machine.run();
    ASSERT_NE(other->vmid(), rig.vm->vmid());

    auto run_other = [&](const std::function<void(ArmCpu &)> &body) {
        rig.stack.machine.cpu(0).setEntry([&] {
            other_vcpu->run(rig.stack.machine.cpu(0), body);
        });
        rig.stack.machine.run();
    };
    const Addr ipa = dataIpa(5);
    for (int round = 0; round < 3; ++round) {
        rig.guest([&](ArmCpu &c) {
            c.memWrite(ipa, 0x5150u + round, 4);
            m.store(ipa, 0x5150u + round, 4);
            EXPECT_EQ(c.memRead(ipa, 4), m.load(ipa, 4));
        });
        // The other VM runs with Stage-1 off, so VA == IPA there.
        run_other([&](ArmCpu &c) {
            EXPECT_EQ(c.memRead(ipa, 4), round == 0 ? 0u : 0x7000u + round - 1);
            c.memWrite(ipa, 0x7000u + round, 4);
            EXPECT_EQ(c.memRead(ipa, 4), 0x7000u + round);
        });
    }
    rig.guest([&](ArmCpu &c) { EXPECT_EQ(c.memRead(ipa, 4), m.load(ipa, 4)); });
}

TEST(GuestRamFastPath, Stage2UnmapPlusFlushFaultsAgain)
{
    Model m;
    Rig rig(m);
    const Addr ipa = dataIpa(7);
    rig.guest([&](ArmCpu &c) {
        c.memWrite(ipa + 8, 0x77, 4);
        m.store(ipa + 8, 0x77, 4);
        EXPECT_EQ(c.memRead(ipa + 8, 4), 0x77u);
    });
    const std::uint64_t faults = rig.stage2Faults();
    rig.unmapData(m, 7);
    rig.guest([&](ArmCpu &c) {
        EXPECT_EQ(c.memRead(ipa + 8, 4), 0u);
        EXPECT_EQ(rig.stage2Faults(), faults + 1);
        c.memWrite(ipa + 8, 0x78, 4);
        EXPECT_EQ(c.memRead(ipa + 8, 4), 0x78u);
        EXPECT_EQ(rig.stage2Faults(), faults + 1);
    });
}

TEST(GuestRamFastPath, SnapshotEndsWritePointersAndClonesKeepTheImage)
{
    Model m;
    Rig origin(m);
    const Addr ipa = dataIpa(9);
    origin.guest([&](ArmCpu &c) {
        for (int i = 0; i < 3; ++i) // warm write pointer, then hits
            c.memWrite(ipa, 0xB0u + i, 4);
        EXPECT_EQ(c.memRead(ipa, 4), 0xB2u);
    });
    auto snap = origin.stack.machine.takeSnapshot();

    // The page moved into the image: the origin's next write must
    // COW-fault, whatever its TLB slot held.
    const std::uint64_t cow = origin.ram().cowFaults();
    origin.guest([&](ArmCpu &c) {
        c.memWrite(ipa, 0xC0, 4);
        EXPECT_EQ(origin.ram().cowFaults(), cow + 1);
        c.memWrite(ipa, 0xC1, 4);
        EXPECT_EQ(c.memRead(ipa, 4), 0xC1u);
        EXPECT_EQ(origin.ram().cowFaults(), cow + 1);
    });

    Rig clone(*snap);
    clone.guest([&](ArmCpu &c) {
        EXPECT_EQ(c.memRead(ipa, 4), 0xB2u);
        c.memWrite(ipa, 0xD0, 4);
        c.memWrite(ipa, 0xD1, 4);
        EXPECT_EQ(c.memRead(ipa, 4), 0xD1u);
    });
    origin.guest([&](ArmCpu &c) { EXPECT_EQ(c.memRead(ipa, 4), 0xC1u); });
    Rig second(*snap);
    second.guest([&](ArmCpu &c) { EXPECT_EQ(c.memRead(ipa, 4), 0xB2u); });

    // Restoring the origin frees the private page its TLB slot points at.
    origin.stack.machine.restoreSnapshot(*snap);
    origin.guest([&](ArmCpu &c) {
        EXPECT_EQ(c.memRead(ipa, 4), 0xB2u);
        c.memWrite(ipa, 0xE0, 4);
        EXPECT_EQ(c.memRead(ipa, 4), 0xE0u);
    });
    second.guest([&](ArmCpu &c) { EXPECT_EQ(c.memRead(ipa, 4), 0xB2u); });
}

TEST(GuestRamFastPath, CowFaultEndsOtherSlotsImagePointers)
{
    Model m;
    Rig rig(m);
    const unsigned j = 5;
    const Addr ipa = m.window[0][j];
    rig.guest([&](ArmCpu &c) { windowStore(c, m, j, 0x30, 0x5A5A, 2); });
    auto snap = rig.stack.machine.takeSnapshot();
    rig.guest([&](ArmCpu &c) {
        // The window's slot now points into the image; the identity
        // mapping's write COW-faults the frame through another slot.
        expectWindowLoad(c, m, j, 0x30, 2);
        expectWindowLoad(c, m, j, 0x30, 2);
        const std::uint64_t cow = rig.ram().cowFaults();
        c.memWrite(ipa + 0x30, 0xA5A5, 2);
        m.store(ipa + 0x30, 0xA5A5, 2);
        EXPECT_EQ(rig.ram().cowFaults(), cow + 1);
        expectWindowLoad(c, m, j, 0x30, 2);
    });
}

TEST(GuestRamFastPath, ReusedImageFrameReadsItsNewBytes)
{
    // A Stage-2 unmap with no TLB flush leaves the guest's entry pointing
    // at the freed frame, which the next Stage-2 fault hands out again,
    // zeroed over the image's copy. The stale entry must read what the
    // frame holds now, as the full path would.
    Model m;
    Rig rig(m);
    const Addr a = dataIpa(10), b = dataIpa(11), c_ipa = dataIpa(12);
    rig.guest([&](ArmCpu &c) { c.memWrite(a + 0x40, 0x1234, 4); });
    auto snap = rig.stack.machine.takeSnapshot();
    rig.guest([&](ArmCpu &c) {
        // A first fault after the snapshot COW-faults the Stage-2 table
        // and the world switch's pages, so the reuse below is the only
        // thing that takes an image frame.
        c.memWrite(c_ipa, 1, 4);
        EXPECT_EQ(c.memRead(a + 0x40, 4), 0x1234u);
        EXPECT_EQ(c.memRead(a + 0x40, 4), 0x1234u);
    });
    const Addr frame = *rig.vm->stage2().ipaToPa(a);
    rig.stack.machine.cpu(0).setEntry(
        [&] { ASSERT_TRUE(rig.vm->stage2().unmapPage(a)); });
    rig.stack.machine.run();
    rig.guest([&](ArmCpu &c) {
        c.memWrite(b + 0x80, 0x99, 4);
        ASSERT_EQ(rig.vm->stage2().ipaToPa(b), frame);
        EXPECT_EQ(c.memRead(a + 0x40, 4), 0u);
        EXPECT_EQ(c.memRead(a + 0x80, 4), 0x99u);
    });
}

TEST(GuestRamFastPath, PageCrossingAccessReachesBothGuestPages)
{
    // Data pages A and A + 1 fault into host frames that are not
    // adjacent, so the access's tail must be translated on its own.
    Model m;
    Rig rig(m);
    const Addr a = dataIpa(14);
    rig.guest([&](ArmCpu &c) {
        c.memWrite(a + 0xFFC, 0x11111111, 4);
        c.memWrite(a + kPageSize, 0x22222222, 4);
        for (int i = 0; i < 2; ++i) // the full path, then the slot views
            EXPECT_EQ(c.memRead(a + 0xFFC, 8), 0x2222222211111111u);
        c.memWrite(a + 0xFFE, 0x8877665544332211u, 8);
        EXPECT_EQ(c.memRead(a + 0xFFC, 4), 0x22111111u);
        EXPECT_EQ(c.memRead(a + kPageSize, 8), 0x887766554433u);
    });
    const Addr lo = *rig.vm->stage2().ipaToPa(a);
    const Addr hi = *rig.vm->stage2().ipaToPa(a + kPageSize);
    EXPECT_NE(lo + kPageSize, hi);
}

/** Half a page of registers that reads back tag | offset and records
 *  every access. */
class HalfPageDevice : public MmioDevice
{
  public:
    HalfPageDevice(std::uint64_t tag, Cycles latency)
        : tag_(tag), latency_(latency)
    {
    }
    std::string name() const override { return "half-page"; }
    std::uint64_t
    read(CpuId, Addr offset, unsigned) override
    {
        offsets.push_back(offset);
        return tag_ | offset;
    }
    void
    write(CpuId, Addr offset, std::uint64_t, unsigned) override
    {
        offsets.push_back(offset);
    }
    Cycles accessLatency() const override { return latency_; }

    std::vector<Addr> offsets;

  private:
    std::uint64_t tag_;
    Cycles latency_;
};

TEST(TlbSlotView, DeviceViewServesOnlyItsOwnRegion)
{
    // Two devices share one page. The slot's view names the first one
    // accessed; an access to the other half must still reach the other
    // device, at its latency, and count as a TLB hit.
    constexpr Addr kPage = 0x0B000000;
    HalfPageDevice low(0xA000, 7), high(0xB000, 11);
    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 32 * kMiB;
    ArmMachine machine(mc);
    machine.bus().addDevice(kPage, kPageSize / 2, &low);
    machine.bus().addDevice(kPage + kPageSize / 2, kPageSize / 2, &high);
    ArmCpu &cpu = machine.cpu(0);
    std::vector<std::uint64_t> reads;
    std::vector<Cycles> took;
    cpu.setEntry([&] {
        for (Addr off : {Addr{0x10}, Addr{0x14}, Addr{0x810}, Addr{0x20},
                         Addr{0x818}, Addr{0x818}}) {
            const Cycles t0 = cpu.now();
            reads.push_back(cpu.memRead(kPage + off, 4));
            took.push_back(cpu.now() - t0);
        }
        cpu.memWrite(kPage + 0x824, 1, 4);
    });
    machine.run();
    EXPECT_EQ(reads, (std::vector<std::uint64_t>{0xA010, 0xA014, 0xB010,
                                                 0xA020, 0xB018, 0xB018}));
    EXPECT_EQ(low.offsets, (std::vector<Addr>{0x10, 0x14, 0x20}));
    EXPECT_EQ(high.offsets, (std::vector<Addr>{0x10, 0x18, 0x18, 0x24}));
    EXPECT_EQ(took[1], 7u);
    EXPECT_EQ(took[2], 11u);
    EXPECT_EQ(took[3], 7u);
    EXPECT_EQ(took[5], 11u);
    EXPECT_EQ(cpu.mmu().tlb().misses(), 1u);
    EXPECT_EQ(cpu.mmu().tlb().hits(), 6u);
}

/**
 * A machine with no software on it: CPU 0 in SVC mode with Stage-1 on and
 * VA kDevVa mapped to one device page.
 */
class BareRig
{
  public:
    static constexpr Addr kDevVa = 0x40000000;

    explicit BareRig(Addr device_page) : machine(config())
    {
        arm::PageTableEditor ed(
            arm::PtFormat::KernelLpae,
            [this](Addr pa) { return machine.ram().read(pa, 8); },
            [this](Addr pa, std::uint64_t v) { machine.ram().write(pa, v, 8); },
            [this] {
                nextTable_ -= kPageSize;
                machine.ram().zeroPage(nextTable_);
                return nextTable_;
            });
        const Addr root = ed.newRoot();
        arm::Perms device;
        device.device = true;
        ed.map(root, kDevVa, device_page, device);
        ArmCpu &c = machine.cpu(0);
        c.regs().write64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, root);
        c.regs()[CtrlReg::TTBCR] = 0;
        c.regs()[CtrlReg::CONTEXTIDR] = 1;
        c.regs()[CtrlReg::SCTLR] |= 1;
    }

    std::uint64_t
    load(Addr off)
    {
        std::uint64_t v = 0;
        machine.cpu(0).setEntry(
            [&] { v = machine.cpu(0).memRead(kDevVa + off, 4); });
        machine.run();
        return v;
    }

    arm::Tlb &tlb() { return machine.cpu(0).mmu().tlb(); }

    ArmMachine machine;

  private:
    static ArmMachine::Config
    config()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 32 * kMiB;
        return mc;
    }

    Addr nextTable_ = ArmMachine::kRamBase + 16 * kMiB;
};

TEST(TlbSlotView, RestoreClearsTheViewOfAnotherDevicePage)
{
    // The same VA maps the GICD page on the origin and the GICC page on
    // the target, so the restored slot holds the key whose view, on the
    // target, names GICC. A restore must clear every view, and the next
    // access must reach the GICD, as it does on the origin.
    BareRig origin(ArmMachine::kGicdBase), target(ArmMachine::kGiccBase);
    for (int i = 0; i < 2; ++i) {
        origin.load(arm::gicd::CTLR);
        target.load(arm::gicc::CTLR);
    }
    const std::uint64_t typer = origin.machine.gicd().read(0, arm::gicd::TYPER, 4);
    ASSERT_NE(typer, target.machine.gicc().read(0, arm::gicc::PMR, 4));

    auto snap = origin.machine.takeSnapshot();
    target.machine.restoreSnapshot(*snap);
    for (std::size_t i = 0; i < target.tlb().capacity(); ++i) {
        const arm::Tlb::View &v = target.tlb().view(i);
        EXPECT_EQ(v.ram.bytes, nullptr) << "slot " << i;
        EXPECT_EQ(v.dev.dev, nullptr) << "slot " << i;
    }
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(target.load(arm::gicd::TYPER), typer);
        EXPECT_EQ(origin.load(arm::gicd::TYPER), typer);
    }
    EXPECT_EQ(target.machine.cpu(0).now(), origin.machine.cpu(0).now());
    EXPECT_EQ(target.tlb().hits(), origin.tlb().hits());
    EXPECT_EQ(target.tlb().misses(), origin.tlb().misses());
}

/**
 * A seeded stream of 1/2/4/8-byte loads and stores, aligned and not (some
 * crossing into the next page), through the windows and the identity map, interleaved with remaps, ASID
 * switches, TLB flushes, Stage-2 unmaps, snapshots and clones. Up to
 * three rigs are live (the origin and two clones), each with its own
 * model; every load on every rig must match its model.
 */
class GuestRamStream : public ::testing::TestWithParam<unsigned>
{};

TEST_P(GuestRamStream, SeededOpsMatchTheByteModel)
{
    Rng rng(0x6a7e + GetParam() * 7919);
    struct Live
    {
        std::unique_ptr<Rig> rig;
        Model model;
    };
    std::vector<Live> live(1);
    live[0].rig = std::make_unique<Rig>(live[0].model);

    auto guest_step = [&](Live &l, ArmCpu &c) {
        Model &m = l.model;
        const unsigned j = static_cast<unsigned>(rng.range(kWindows));
        const std::uint64_t op = rng.range(16);
        if (op == 0) {
            l.rig->remap(c, m, j,
                         rng.range(8) == 0
                             ? kGiccIpa
                             : dataIpa(static_cast<unsigned>(
                                   rng.range(kDataPages))));
            return;
        }
        if (op == 1) {
            Rig::switchAsid(c, m);
            return;
        }
        if (op == 2) {
            c.tlbiAll();
            return;
        }
        const unsigned len = 1u << rng.range(4);
        const std::uint64_t where = rng.range(4);
        const Addr off = where < 2    ? rng.range(kPageSize / len) * len
                         : where == 2 ? rng.range(kPageSize)
                                      : kPageSize - 1 - rng.range(8);
        // Bytes past the page end go to the next VA page: window j + 8
        // follows window j < 8, and data page p + 1 follows p.
        const unsigned low = std::min<unsigned>(len, kPageSize - off);
        const bool crosses = low < len;
        const bool via_window = rng.range(3) != 0;
        if (via_window && crosses && j >= 8)
            return; // no window follows
        const Addr va = via_window
                            ? windowVa(j)
                            : dataIpa(static_cast<unsigned>(rng.range(
                                  crosses ? kDataPages - 1 : kDataPages)));
        const Addr ipa = via_window ? m.window[m.asid][j] : va;
        const Addr next = via_window ? m.window[m.asid][(j + 8) % kWindows]
                                     : va + kPageSize;
        if (ipa == kGiccIpa || (crosses && next == kGiccIpa))
            return; // the device page is not RAM
        if (rng.range(3) == 0) {
            const std::uint64_t v = rng.next();
            c.memWrite(va + off, v, len);
            m.store(ipa + off, v, low);
            if (crosses)
                m.store(next, v >> (8 * low), len - low);
        } else {
            std::uint64_t want = m.load(ipa + off, low);
            if (crosses)
                want |= m.load(next, len - low) << (8 * low);
            ASSERT_EQ(c.memRead(va + off, len), want)
                << "va " << std::hex << va + off << " len " << std::dec
                << len;
        }
    };

    for (int chunk = 0; chunk < 60; ++chunk) {
        Live &l = live[rng.range(live.size())];
        const std::uint64_t kind = rng.range(10);
        if (kind == 0) {
            const auto page = static_cast<unsigned>(rng.range(kDataPages));
            if (l.rig->vm->stage2().ipaToPa(dataIpa(page)))
                l.rig->unmapData(l.model, page);
        } else if (kind == 1) {
            auto snap = l.rig->stack.machine.takeSnapshot();
            Live clone;
            clone.rig = std::make_unique<Rig>(*snap);
            clone.model = l.model;
            if (live.size() < 3)
                live.push_back(std::move(clone));
            else
                live[1 + rng.range(2)] = std::move(clone);
        } else {
            const int steps = 20 + static_cast<int>(rng.range(200));
            l.rig->guest([&](ArmCpu &c) {
                for (int s = 0; s < steps && !HasFatalFailure(); ++s)
                    guest_step(l, c);
            });
        }
        ASSERT_FALSE(HasFatalFailure()) << "chunk " << chunk;
    }
    // Every rig still reads back its whole model.
    for (Live &l : live) {
        l.rig->guest([&](ArmCpu &c) {
            for (unsigned p = 0; p < kDataPages; ++p) {
                for (Addr off = 0; off < kPageSize; off += 8)
                    ASSERT_EQ(c.memRead(dataIpa(p) + off, 8),
                              l.model.load(dataIpa(p) + off, 8))
                        << "page " << p << " +" << off;
            }
        });
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestRamStream, ::testing::Range(0u, 8u));

/**
 * Counters and clock after a fixed six-access script: a store and a load
 * that fill a slot and its pointer, two hits, a second page and a return
 * to the first. The values were recorded with the full path alone.
 */
TEST(GuestRamFastPath, SixAccessScriptMatchesTheFullPath)
{
    Model m;
    Rig rig(m);
    rig.guest([&](ArmCpu &c) {
        windowStore(c, m, 6, 0x100, 0x0123456789ABCDEFull, 8);
        expectWindowLoad(c, m, 6, 0x100, 8);
        expectWindowLoad(c, m, 6, 0x104, 4);
        windowStore(c, m, 6, 0x10A, 0xEE, 1);
        expectWindowLoad(c, m, 9, 0x20, 2);
        expectWindowLoad(c, m, 6, 0x108, 4);
    });
    EXPECT_EQ(rig.tlb().hits(), 1453u);
    EXPECT_EQ(rig.tlb().misses(), 39u);
    EXPECT_EQ(rig.tlb().epoch(), 0u);
    EXPECT_EQ(rig.stack.machine.cpu(0).now(), 119402u);
}

/**
 * Clones restored from one snapshot on several fleet workers read the
 * image's pages through their own host pointers while others COW-fault
 * them (run under TSan by tools/ci.sh).
 */
TEST(GuestRamFleet, ClonesReadOneImageThroughHostPointers)
{
    Model m;
    Rig origin(m);
    origin.guest([&](ArmCpu &c) {
        for (unsigned p = 0; p < kDataPages; ++p) {
            c.memWrite(dataIpa(p), 0xF000u + p, 4);
            m.store(dataIpa(p), 0xF000u + p, 4);
        }
    });
    auto snap = origin.stack.machine.takeSnapshot();

    constexpr unsigned kClones = 8;
    std::vector<int> bad(kClones, 0);
    Fleet fleet(4);
    for (unsigned i = 0; i < kClones; ++i) {
        fleet.submit("clone" + std::to_string(i), [i, &snap, &m, &bad] {
            Rig clone(*snap);
            clone.guest([&](ArmCpu &c) {
                for (int round = 0; round < 50; ++round) {
                    for (unsigned p = 0; p < kDataPages; ++p) {
                        const Addr a = dataIpa(p);
                        const std::uint64_t want =
                            p % kClones == i && round > 0 ? 0xE000u + i
                                                          : m.load(a, 4);
                        bad[i] += c.memRead(a, 4) != want;
                        if (p % kClones == i)
                            c.memWrite(a, 0xE000u + i, 4);
                    }
                }
            });
        });
    }
    fleet.start();
    for (const Fleet::JobResult &r : fleet.shutdown())
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    for (unsigned i = 0; i < kClones; ++i)
        EXPECT_EQ(bad[i], 0) << "clone " << i;
}

} // namespace
} // namespace kvmarm
