/**
 * @file
 * ArmCpu::regBurst differential tests: two identical KVM machines run the
 * same Hyp-mode GICH transfer, one through a register burst and one as
 * per-register memRead/memWrite. The clocks, the TLB counters and the
 * whole-machine snapshot records (CPU, micro-TLB, TLB, GIC, ...) must come
 * out identical, including when an event lands mid-burst, when the Hyp MMU
 * is off, and when the offsets leave the first page.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

constexpr Addr kGich = ArmMachine::kGichBase;
constexpr IrqId kSpi = arm::kFirstSpi + 5;

/** Every GICH register a full world switch moves, in its order. */
std::vector<Addr>
vgicOffsets()
{
    return {arm::kVgicSwitchList.begin(), arm::kVgicSwitchList.end()};
}

/** Runs a body in Hyp mode through an HVC, then returns to the lowvisor. */
class BodyHyp : public arm::HypVectors
{
  public:
    explicit BodyHyp(std::function<void(ArmCpu &)> body)
        : body_(std::move(body))
    {
    }
    void hypTrap(ArmCpu &cpu, const arm::Hsr &) override { body_(cpu); }
    const char *name() const override { return "burst-body"; }

  private:
    std::function<void(ArmCpu &)> body_;
};

/** A booted host with KVM initialized on its one CPU. */
struct Rig
{
    Rig()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 64 * kMiB;
        machine = std::make_unique<ArmMachine>(mc);
        hostk = std::make_unique<host::HostKernel>(*machine);
        kvm = std::make_unique<core::Kvm>(*hostk);
    }

    /** Boot, then run @p body in Hyp mode; the host kernel takes any IRQ
     *  pending at the ERET. */
    void
    run(const std::function<void(ArmCpu &)> &body)
    {
        ArmCpu &cpu = machine->cpu(0);
        cpu.setEntry([this, &cpu, body] {
            hostk->boot(0);
            ASSERT_TRUE(kvm->initCpu(cpu));
            hostk->requestIrq(kSpi, [this](ArmCpu &c, IrqId) {
                irqTakenAt.push_back(c.now());
            });
            hostk->enableIrq(cpu, kSpi);
            BodyHyp hyp(body);
            arm::HypVectors *lowvisor = cpu.hypVectors();
            cpu.setHypVectors(&hyp);
            cpu.hvc(0);
            cpu.setHypVectors(lowvisor);
            cpu.compute(100);
        });
        machine->run();
    }

    std::unique_ptr<ArmMachine> machine;
    std::unique_ptr<host::HostKernel> hostk;
    std::unique_ptr<core::Kvm> kvm;
    std::vector<Cycles> irqTakenAt;
};

/** One transfer, issued either as a burst or register by register. */
struct Transfer
{
    Addr base;
    std::vector<Addr> offsets;
    bool write;
};

/** Values the two rigs observe and end up with. */
struct Outcome
{
    std::vector<std::uint32_t> reads;
    std::vector<Cycles> transferEnds;
    Cycles now = 0;
    std::uint64_t hitsInBody = 0;
    std::uint64_t missesInBody = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t epoch = 0;
};

std::vector<std::uint32_t>
writeValues(const Transfer &t)
{
    std::vector<std::uint32_t> vals;
    for (std::size_t i = 0; i < t.offsets.size(); ++i)
        vals.push_back(0x10203000u + 0x11u * static_cast<std::uint32_t>(i));
    return vals;
}

/** Run @p transfers on @p rig, as bursts or one access at a time;
 *  @p before runs in Hyp mode first. */
Outcome
drive(Rig &rig, const std::vector<Transfer> &transfers, bool burst,
      const std::function<void(ArmCpu &)> &before)
{
    Outcome out;
    rig.run([&](ArmCpu &cpu) {
        if (before)
            before(cpu);
        std::uint64_t hits0 = cpu.mmu().tlb().hits();
        std::uint64_t misses0 = cpu.mmu().tlb().misses();
        for (const Transfer &t : transfers) {
            std::vector<std::uint32_t> vals =
                t.write ? writeValues(t)
                        : std::vector<std::uint32_t>(t.offsets.size());
            if (burst) {
                cpu.regBurst(t.base, t.offsets, vals, t.write);
            } else {
                for (std::size_t i = 0; i < t.offsets.size(); ++i) {
                    Addr va = t.base + t.offsets[i];
                    if (t.write)
                        cpu.memWrite(va, vals[i]);
                    else
                        vals[i] = static_cast<std::uint32_t>(
                            cpu.memRead(va, 4));
                }
            }
            if (!t.write)
                out.reads.insert(out.reads.end(), vals.begin(), vals.end());
            out.transferEnds.push_back(cpu.now());
        }
        out.hitsInBody = cpu.mmu().tlb().hits() - hits0;
        out.missesInBody = cpu.mmu().tlb().misses() - misses0;
    });
    arm::Tlb &tlb = rig.machine->cpu(0).mmu().tlb();
    out.now = rig.machine->cpu(0).now();
    out.hits = tlb.hits();
    out.misses = tlb.misses();
    out.epoch = tlb.epoch();
    return out;
}

/** Drive both rigs and require bit-identical results. Returns the burst
 *  rig's outcome for case-specific checks. */
Outcome
expectSameAsPerRegister(const std::vector<Transfer> &transfers,
                        const std::function<void(ArmCpu &)> &before = {},
                        std::vector<Cycles> *irqs = nullptr)
{
    Rig bursted, single;
    Outcome a = drive(bursted, transfers, true, before);
    Outcome b = drive(single, transfers, false, before);

    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.transferEnds, b.transferEnds);
    EXPECT_EQ(a.now, b.now);
    EXPECT_EQ(a.hitsInBody, b.hitsInBody);
    EXPECT_EQ(a.missesInBody, b.missesInBody);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(bursted.irqTakenAt, single.irqTakenAt);
    if (irqs)
        *irqs = bursted.irqTakenAt;

    auto snapA = bursted.machine->takeSnapshot();
    auto snapB = single.machine->takeSnapshot();
    EXPECT_EQ(snapA->records.size(), snapB->records.size());
    for (std::size_t i = 0;
         i < std::min(snapA->records.size(), snapB->records.size()); ++i) {
        SCOPED_TRACE("record " + snapA->records[i].key);
        EXPECT_EQ(snapA->records[i].key, snapB->records[i].key);
        EXPECT_EQ(snapA->records[i].bytes, snapB->records[i].bytes);
    }
    return a;
}

TEST(RegBurst, WorldSwitchTransferMatchesPerRegisterAccesses)
{
    // Restore then save, as a world switch in and out does.
    std::vector<Transfer> ts = {{kGich, vgicOffsets(), true},
                                {kGich, vgicOffsets(), false}};
    Outcome o = expectSameAsPerRegister(ts);
    // The Hyp MMU is on: the first access walks, every later one hits.
    EXPECT_EQ(o.missesInBody, 1u);
    EXPECT_EQ(o.hitsInBody, 2 * vgicOffsets().size() - 1);
    // The list registers read back what was written.
    std::vector<std::uint32_t> wrote = writeValues(ts[0]);
    for (unsigned i = 0; i < arm::kNumListRegs; ++i) {
        std::size_t at = arm::kVgicCtrlSaveList.size() + i;
        EXPECT_EQ(o.reads[at],
                  arm::ListReg::unpack(wrote[at]).pack());
    }
}

TEST(RegBurst, EventMidBurstFlushesTlbAndRaisesAnIrq)
{
    // An event due inside the transfer flushes the TLB and raises an SPI:
    // the burst must fall back to the full path (a TLB miss and walk),
    // and the host must take the IRQ at the same cycle. The delays put
    // the event inside the first access's table walk, inside its device
    // latency, and at points further into both bursts.
    for (Cycles delay : {1, 40, 250, 600, 1200, 1800}) {
        SCOPED_TRACE("event delay " + std::to_string(delay));
        auto arm_event = [delay](ArmCpu &cpu) {
            cpu.events().schedule(cpu.now() + delay, [&cpu] {
                cpu.mmu().tlb().flushAll();
                cpu.machine().gicd().raiseSpi(kSpi, cpu.now());
            });
        };
        std::vector<Cycles> irqs;
        std::vector<Transfer> ts = {{kGich, vgicOffsets(), true},
                                    {kGich, vgicOffsets(), false}};
        Outcome o = expectSameAsPerRegister(ts, arm_event, &irqs);
        EXPECT_EQ(o.missesInBody, 2u); // the first access, and the refill
        EXPECT_EQ(irqs.size(), 1u);
    }
}

TEST(RegBurst, HypMmuOffCountsNoHits)
{
    // With HSCTLR.M clear, translation is the identity and never touches
    // the TLB: the burst must not count hits it would not have had.
    std::vector<Transfer> ts = {{kGich, vgicOffsets(), true},
                                {kGich, vgicOffsets(), false}};
    Outcome o = expectSameAsPerRegister(
        ts, [](ArmCpu &cpu) { cpu.hyp().hsctlrM = false; });
    EXPECT_EQ(o.hitsInBody, 0u);
    EXPECT_EQ(o.missesInBody, 0u);
}

TEST(RegBurst, OffsetsThatLeaveThePageTakeTheFullPath)
{
    // Offsets from base 0 hop between the GICH, GICD and GICC pages and
    // back: every page change re-translates and re-decodes.
    const std::vector<Addr> offs = {
        kGich + arm::gich::HCR,           kGich + arm::gich::VMCR,
        ArmMachine::kGicdBase + arm::gicd::CTLR,
        kGich + arm::gich::LR0,           kGich + arm::gich::LR0 + 4,
        ArmMachine::kGiccBase + arm::gicc::PMR,
        kGich + arm::gich::ELRSR0,
    };
    std::vector<Transfer> ts = {{0, offs, false}};
    Outcome o = expectSameAsPerRegister(ts);
    EXPECT_EQ(o.reads.size(), offs.size());
    EXPECT_EQ(o.missesInBody, 3u); // one walk per page
    EXPECT_EQ(o.hitsInBody, offs.size() - 3);
}

TEST(RegBurst, MismatchedValueSpanPanics)
{
    Rig rig;
    ArmCpu &cpu = rig.machine->cpu(0);
    std::array<Addr, 2> offs = {arm::gich::HCR, arm::gich::VMCR};
    std::array<std::uint32_t, 1> vals{};
    EXPECT_DEATH(cpu.regBurst(kGich, offs, vals, false), "register burst");
}

} // namespace
} // namespace kvmarm
