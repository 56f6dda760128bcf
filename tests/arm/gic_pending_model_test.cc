/**
 * @file
 * Interrupt selection and line levels against a reference model: seeded
 * operations on the physical distributor and CPU interface, the virtual
 * distributor emulation, and the GICH/GICV virtual CPU interface of 1-, 2-,
 * 4- and 8-CPU machines. The model keeps the obvious 160-IRQ scan and the
 * line formulas the controllers once evaluated on every poll. After every
 * step each CPU's physical and virtual selection (irq, priority, SGI
 * source), its IRQ and virtual IRQ line levels and its list registers must
 * equal the model's. At a random step the machine is snapshotted and
 * restored into a fresh machine, which the model then keeps driving.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"
#include "sim/random.hh"

namespace kvmarm {
namespace {

using arm::ArmMachine;
using arm::ListReg;
using arm::LrState;
using arm::PendingIrq;
using arm::VgicBank;
using arm::kFirstPpi;
using arm::kFirstSpi;
using arm::kMaxIrqs;
using arm::kNumListRegs;
using arm::kNumSgis;
using arm::kSpuriousIrq;
namespace gicc = arm::gicc;
namespace gicd = arm::gicd;
namespace gich = arm::gich;

constexpr std::uint8_t kDefaultPrio = 0xA0;

/** One distributor, physical or emulated, kept the obvious way. */
struct DistModel
{
    struct Bank
    {
        std::array<std::uint16_t, kNumSgis> sgiSources{};
        std::array<bool, 32> ppiPending{};
        std::array<bool, 32> enabled{};
        std::array<std::uint8_t, 32> priority{};
    };

    explicit DistModel(unsigned n) : banks(n)
    {
        spiPriority.fill(kDefaultPrio);
        spiTargets.fill(0x01);
        for (Bank &b : banks)
            b.priority.fill(kDefaultPrio);
    }

    bool enabled = false;
    std::array<bool, kMaxIrqs> spiEnabled{};
    std::array<bool, kMaxIrqs> spiPending{};
    std::array<std::uint8_t, kMaxIrqs> spiPriority{};
    std::array<std::uint8_t, kMaxIrqs> spiTargets{};
    std::vector<Bank> banks;

    /** The scan over all 160 IDs. */
    PendingIrq
    best(unsigned cpu) const
    {
        PendingIrq best;
        if (!enabled)
            return best;
        const Bank &bank = banks[cpu];
        auto consider = [&](IrqId irq, std::uint8_t prio, CpuId src) {
            if (prio < best.priority ||
                (prio == best.priority && irq < best.irq))
                best = {irq, prio, src};
        };
        for (IrqId sgi = 0; sgi < kNumSgis; ++sgi) {
            std::uint16_t sources = bank.sgiSources[sgi];
            if (sources && bank.enabled[sgi]) {
                CpuId src = 0;
                while (!(sources & (1u << src)))
                    ++src;
                consider(sgi, bank.priority[sgi], src);
            }
        }
        for (IrqId ppi = kFirstPpi; ppi < kFirstSpi; ++ppi) {
            if (bank.ppiPending[ppi] && bank.enabled[ppi])
                consider(ppi, bank.priority[ppi], 0);
        }
        for (IrqId spi = kFirstSpi; spi < kMaxIrqs; ++spi) {
            if (spiPending[spi] && spiEnabled[spi] &&
                (spiTargets[spi] & (1u << cpu)))
                consider(spi, spiPriority[spi], 0);
        }
        return best;
    }

    /** A register write from @p cpu other than SGIR. */
    void
    write(unsigned cpu, Addr off, std::uint32_t v)
    {
        Bank &bank = banks[cpu];
        auto each = [&](Addr base, auto fn) {
            for (unsigned i = 0; i < 32; ++i) {
                IrqId irq = (off - base) / 4 * 32 + i;
                if (irq < kMaxIrqs && (v & (1u << i)))
                    fn(irq);
            }
        };
        if (off == gicd::CTLR) {
            enabled = v & 1;
        } else if (off >= gicd::ISENABLER && off < gicd::ISENABLER + 0x80) {
            each(gicd::ISENABLER, [&](IrqId irq) {
                if (irq < kFirstSpi)
                    bank.enabled[irq] = true;
                else
                    spiEnabled[irq] = true;
            });
        } else if (off >= gicd::ICENABLER && off < gicd::ICENABLER + 0x80) {
            each(gicd::ICENABLER, [&](IrqId irq) {
                if (irq < kFirstSpi)
                    bank.enabled[irq] = false;
                else
                    spiEnabled[irq] = false;
            });
        } else if (off >= gicd::ICPENDR && off < gicd::ICPENDR + 0x80) {
            each(gicd::ICPENDR, [&](IrqId irq) {
                if (irq < kNumSgis)
                    bank.sgiSources[irq] = 0;
                else if (irq < kFirstSpi)
                    bank.ppiPending[irq] = false;
                else
                    spiPending[irq] = false;
            });
        } else if (off >= gicd::IPRIORITYR &&
                   off < gicd::IPRIORITYR + kMaxIrqs) {
            IrqId irq = static_cast<IrqId>(off - gicd::IPRIORITYR);
            if (irq < kFirstSpi)
                bank.priority[irq] = static_cast<std::uint8_t>(v);
            else
                spiPriority[irq] = static_cast<std::uint8_t>(v);
        } else if (off >= gicd::ITARGETSR &&
                   off < gicd::ITARGETSR + kMaxIrqs) {
            IrqId irq = static_cast<IrqId>(off - gicd::ITARGETSR);
            if (irq >= kFirstSpi)
                spiTargets[irq] = static_cast<std::uint8_t>(v);
        }
    }

    /** SGIR from @p src: pend the SGI at every target CPU. */
    void
    sgir(unsigned src, std::uint32_t v)
    {
        unsigned n = static_cast<unsigned>(banks.size());
        unsigned filter = (v >> 24) & 3;
        unsigned mask = filter == 0   ? (v >> 16) & 0xFF
                        : filter == 1 ? ((1u << n) - 1) & ~(1u << src)
                        : filter == 2 ? 1u << src
                                      : 0;
        for (unsigned t = 0; t < n; ++t) {
            if (mask & (1u << t))
                banks[t].sgiSources[v & 0xF] |=
                    static_cast<std::uint16_t>(1u << src);
        }
    }

    /** Take @p p out of @p cpu's pending state. */
    void
    consume(unsigned cpu, const PendingIrq &p)
    {
        if (p.irq < kNumSgis)
            banks[cpu].sgiSources[p.irq] &=
                static_cast<std::uint16_t>(~(1u << p.source));
        else if (p.irq < kFirstSpi)
            banks[cpu].ppiPending[p.irq] = false;
        else
            spiPending[p.irq] = false;
    }
};

/** IAR encoding: the id, plus an SGI's source CPU in bits [12:10]. */
std::uint32_t
iarValue(IrqId irq, CpuId source)
{
    return irq | (irq < kNumSgis ? source << 10 : 0);
}

bool
lrPending(const ListReg &lr)
{
    return lr.state == LrState::Pending || lr.state == LrState::PendingActive;
}

/** Everything the machine should hold, kept the obvious way. */
struct Model
{
    explicit Model(unsigned n)
        : gicd(n), gicc(n), vdist(n), shadow(n), softActive(n), hyp(n)
    {
    }

    struct CpuIf
    {
        bool enabled = false;
        std::uint8_t pmr = 0xFF;
        std::vector<PendingIrq> active;

        std::uint8_t
        running() const
        {
            return active.empty() ? 0xFF : active.back().priority;
        }
    };

    DistModel gicd;
    std::vector<CpuIf> gicc;
    DistModel vdist;                            //!< the VM's, one bank per VCPU
    std::vector<VgicBank> shadow;               //!< per VCPU
    std::vector<std::vector<IrqId>> softActive; //!< per VCPU
    std::vector<VgicBank> hyp;                  //!< GICH, per CPU

    bool
    irqLine(unsigned cpu) const
    {
        const CpuIf &c = gicc[cpu];
        if (!c.enabled || !gicd.enabled)
            return false;
        PendingIrq best = gicd.best(cpu);
        return best.irq != kSpuriousIrq && best.priority < c.pmr &&
               best.priority < c.running();
    }

    bool
    virqLine(unsigned cpu) const
    {
        const VgicBank &b = hyp[cpu];
        if (!b.en || !b.vmEnabled)
            return false;
        return std::any_of(b.lr.begin(), b.lr.end(), [&](const ListReg &lr) {
            return lrPending(lr) && lr.priority < b.vmPmr;
        });
    }

    std::uint32_t
    iar(unsigned cpu)
    {
        CpuIf &c = gicc[cpu];
        PendingIrq best = gicd.best(cpu);
        if (best.irq == kSpuriousIrq || best.priority >= c.pmr ||
            best.priority >= c.running())
            return kSpuriousIrq;
        gicd.consume(cpu, best);
        c.active.push_back(best);
        return iarValue(best.irq, best.source);
    }

    void
    eoir(unsigned cpu, IrqId irq)
    {
        auto &active = gicc[cpu].active;
        for (auto it = active.rbegin(); it != active.rend(); ++it) {
            if (it->irq == irq) {
                active.erase(std::next(it).base());
                return;
            }
        }
    }

    void
    flush(unsigned v)
    {
        VgicBank &sh = shadow[v];
        sh.en = true;
        for (ListReg &lr : sh.lr) {
            if (lr.state != LrState::Empty)
                continue;
            PendingIrq c = vdist.best(v);
            if (c.irq == kSpuriousIrq)
                break;
            vdist.consume(v, c);
            lr = ListReg{};
            lr.virq = c.irq;
            lr.priority = c.priority >> 3;
            lr.state = LrState::Pending;
            lr.source = c.source;
        }
        sh.uie = vdist.best(v).irq != kSpuriousIrq;
    }

    void
    sync(unsigned v)
    {
        for (ListReg &lr : shadow[v].lr) {
            if (lr.state != LrState::Pending)
                continue;
            if (lr.virq < kNumSgis)
                vdist.banks[v].sgiSources[lr.virq] |=
                    static_cast<std::uint16_t>(1u << lr.source);
            else if (lr.virq < kFirstSpi)
                vdist.banks[v].ppiPending[lr.virq] = true;
            else
                vdist.spiPending[lr.virq] = true;
            lr = ListReg{};
        }
    }

    std::uint32_t
    softAck(unsigned v)
    {
        PendingIrq c = vdist.best(v);
        if (c.irq == kSpuriousIrq)
            return kSpuriousIrq;
        vdist.consume(v, c);
        softActive[v].push_back(c.irq);
        return iarValue(c.irq, c.source);
    }

    void
    softEoi(unsigned v, IrqId irq)
    {
        auto &active = softActive[v];
        auto it = std::find(active.rbegin(), active.rend(), irq);
        active.erase(std::next(it).base());
    }

    std::uint32_t
    gicvIar(unsigned cpu)
    {
        VgicBank &b = hyp[cpu];
        if (!b.en || !b.vmEnabled)
            return kSpuriousIrq;
        int best = -1;
        for (unsigned i = 0; i < kNumListRegs; ++i) {
            const ListReg &lr = b.lr[i];
            if (!lrPending(lr) || lr.priority >= b.vmPmr)
                continue;
            if (best < 0 || lr.priority < b.lr[best].priority)
                best = static_cast<int>(i);
        }
        if (best < 0)
            return kSpuriousIrq;
        ListReg &lr = b.lr[best];
        lr.state = lr.state == LrState::Pending ? LrState::Active
                                                : LrState::PendingActive;
        return iarValue(lr.virq, lr.source);
    }

    void
    gicvEoir(unsigned cpu, IrqId virq)
    {
        VgicBank &b = hyp[cpu];
        for (ListReg &lr : b.lr) {
            if (lr.virq != virq)
                continue;
            if (lr.state == LrState::Active) {
                lr = ListReg{};
                // The underflow maintenance interrupt is a physical PPI.
                bool all_empty =
                    std::all_of(b.lr.begin(), b.lr.end(), [](auto &l) {
                        return l.state == LrState::Empty;
                    });
                if (b.en && b.uie && all_empty)
                    gicd.banks[cpu].ppiPending[arm::kMaintenancePpi] = true;
                return;
            }
            if (lr.state == LrState::PendingActive) {
                lr.state = LrState::Pending;
                return;
            }
        }
    }
};

/** A machine with a host kernel, KVM and one VM with a VCPU per CPU. */
struct Rig
{
    explicit Rig(unsigned n) : machine(config(n)), hostk(machine), kvm(hostk)
    {
        // Create the VM without booting the host, so the physical GIC
        // stays at its reset state, as the model's does.
        kvm.primeForRestore();
        vm = kvm.createVm(16 * kMiB);
        for (CpuId c = 0; c < n; ++c)
            vm->addVcpu(c);
    }

    static ArmMachine::Config
    config(unsigned n)
    {
        ArmMachine::Config mc;
        mc.numCpus = n;
        mc.ramSize = 64 * kMiB;
        return mc;
    }

    core::VCpu &vcpu(unsigned v) { return *vm->vcpus()[v]; }

    /** Run every in-flight SPI and SGI delivery. */
    void
    settle()
    {
        for (bool again = true; again;) {
            again = false;
            for (CpuId c = 0; c < machine.numCpus(); ++c) {
                CpuBase &cpu = machine.cpuBase(c);
                if (!cpu.events().empty()) {
                    cpu.advanceTo(cpu.events().nextEventTime());
                    again = true;
                }
            }
        }
    }

    ArmMachine machine;
    host::HostKernel hostk;
    core::Kvm kvm;
    std::unique_ptr<core::Vm> vm;
};

::testing::AssertionResult
sameIrq(const char *what, unsigned cpu, const PendingIrq &got,
        const PendingIrq &want)
{
    if (got.irq == want.irq && got.priority == want.priority &&
        got.source == want.source)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << " of cpu" << cpu << " is irq " << got.irq << " prio "
           << unsigned(got.priority) << " src " << got.source
           << ", model irq " << want.irq << " prio "
           << unsigned(want.priority) << " src " << want.source;
}

::testing::AssertionResult
sameLrs(const char *what, unsigned cpu, const VgicBank &got,
        const VgicBank &want)
{
    if (got.lr == want.lr && got.en == want.en && got.uie == want.uie &&
        got.vmEnabled == want.vmEnabled && got.vmPmr == want.vmPmr)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << " of cpu" << cpu << " differs from the model";
}

/** Every CPU's selections, line levels and list registers. */
::testing::AssertionResult
allMatch(Rig &rig, const Model &m)
{
    for (unsigned c = 0; c < m.gicc.size(); ++c) {
        auto r = sameIrq("gicd.bestPending", c,
                         rig.machine.gicd().bestPending(c), m.gicd.best(c));
        if (!r)
            return r;
        core::VCpu &v = rig.vcpu(c);
        r = sameIrq("vdist.bestPending", c, rig.vm->vdist().bestPending(v),
                    m.vdist.best(c));
        if (!r)
            return r;
        if (rig.machine.gicc().irqLineHigh(c) != m.irqLine(c))
            return ::testing::AssertionFailure()
                   << "irqLineHigh(" << c << ") is "
                   << rig.machine.gicc().irqLineHigh(c);
        if (rig.machine.gich().virqLineHigh(c) != m.virqLine(c))
            return ::testing::AssertionFailure()
                   << "virqLineHigh(" << c << ") is "
                   << rig.machine.gich().virqLineHigh(c);
        bool pending = m.vdist.best(c).irq != kSpuriousIrq ||
                       std::any_of(m.shadow[c].lr.begin(),
                                   m.shadow[c].lr.end(), lrPending);
        if (rig.vm->vdist().hasPendingFor(v) != pending)
            return ::testing::AssertionFailure()
                   << "hasPendingFor(vcpu" << c << ") is " << !pending;
        r = sameLrs("VCPU shadow", c, v.vgicShadow, m.shadow[c]);
        if (!r)
            return r;
        r = sameLrs("GICH bank", c, rig.machine.gich().bank(c), m.hyp[c]);
        if (!r)
            return r;
    }
    return ::testing::AssertionSuccess();
}

/** An IRQ id, mostly from a few per class (so operations collide), at
 *  the SPI bitmap's word boundaries. */
IrqId
pickIrq(Rng &rng)
{
    static constexpr IrqId kSgis[] = {0, 1, 2, 7, 15};
    static constexpr IrqId kPpis[] = {16, 20, 25, 27, 30, 31};
    static constexpr IrqId kSpis[] = {32, 33, 63, 64, 95, 96, 100, 127, 128,
                                      159};
    std::uint64_t r = rng.range(10);
    if (r < 3)
        return kSgis[rng.range(std::size(kSgis))];
    if (r < 6)
        return kPpis[rng.range(std::size(kPpis))];
    return kSpis[rng.range(std::size(kSpis))];
}

std::uint8_t
pickPriority(Rng &rng)
{
    static constexpr std::uint8_t kPrios[] = {0x00, 0x08, 0x10, 0x80, 0xA0,
                                              0xA0, 0xF0, 0xF8, 0xFF};
    return kPrios[rng.range(std::size(kPrios))];
}

/** A 32-IRQ register word and value: one picked IRQ, sometimes more. */
std::pair<Addr, std::uint32_t>
pickWord(Rng &rng, Addr base)
{
    IrqId irq = pickIrq(rng);
    std::uint32_t v = 1u << (irq % 32);
    if (rng.chance(0.3))
        v |= static_cast<std::uint32_t>(rng.next() & rng.next());
    return {base + irq / 32 * 4, v};
}

/** A distributor register write (either distributor): offset, value. */
std::pair<Addr, std::uint32_t>
pickDistWrite(Rng &rng, unsigned n)
{
    switch (rng.range(7)) {
      case 0:
        return pickWord(rng, gicd::ISENABLER);
      case 1:
        return pickWord(rng, gicd::ICENABLER);
      case 2:
        return pickWord(rng, gicd::ICPENDR);
      case 3:
        return {gicd::IPRIORITYR + pickIrq(rng), pickPriority(rng)};
      case 4: {
        IrqId irq = pickIrq(rng);
        // Mostly CPUs of this machine, sometimes none or absent ones.
        std::uint64_t targets =
            rng.chance(0.8) ? 1u << rng.range(n) : rng.range(256);
        return {gicd::ITARGETSR + irq, static_cast<std::uint32_t>(targets)};
      }
      case 5:
        return {gicd::CTLR, rng.chance(0.9) ? 1u : 0u};
      default: {
        std::uint32_t filter = static_cast<std::uint32_t>(rng.range(4));
        std::uint32_t list = static_cast<std::uint32_t>(rng.range(256));
        return {gicd::SGIR, (filter << 24) | (list << 16) |
                                static_cast<std::uint32_t>(rng.range(16))};
      }
    }
}

/** A GICH list-register value that keeps each virq in at most one LR of
 *  @p b (the vgic invariant rule checks that under enforce). */
std::uint32_t
pickLr(Rng &rng, const VgicBank &b, unsigned idx)
{
    static constexpr IrqId kVirqs[] = {3, 9, 20, 27, 33, 60, 64, 100, 130,
                                       159};
    ListReg lr;
    lr.state = static_cast<LrState>(rng.range(4));
    lr.priority = static_cast<std::uint8_t>(rng.range(32));
    lr.source = static_cast<CpuId>(rng.range(8));
    do {
        lr.virq = kVirqs[rng.range(std::size(kVirqs))];
    } while (std::any_of(b.lr.begin(), b.lr.end(), [&](const ListReg &o) {
        return &o != &b.lr[idx] && o.state != LrState::Empty &&
               o.virq == lr.virq;
    }));
    return lr.pack();
}

/** One seeded operation on the machine and the model. */
::testing::AssertionResult
step(Rng &rng, Rig &rig, Model &m)
{
    const unsigned n = static_cast<unsigned>(m.gicc.size());
    const unsigned c = static_cast<unsigned>(rng.range(n));
    ArmMachine &mach = rig.machine;
    arm::ArmCpu &cpu = mach.cpu(c);
    core::VgicDistEmul &vdist = rig.vm->vdist();
    core::VCpu &vcpu = rig.vcpu(c);
    switch (rng.range(24)) {
      case 0:
      case 1:
      case 2: { // physical distributor register
        auto [off, v] = pickDistWrite(rng, n);
        mach.gicd().write(c, off, v, 4);
        rig.settle();
        if (off == gicd::SGIR)
            m.gicd.sgir(c, v);
        else
            m.gicd.write(c, off, v);
        break;
      }
      case 3: {
        IrqId irq = pickIrq(rng);
        if (irq < kFirstSpi)
            irq += kFirstSpi;
        mach.gicd().raiseSpi(irq, 0);
        rig.settle();
        m.gicd.spiPending[irq] = true;
        break;
      }
      case 4:
      case 5: {
        IrqId irq = pickIrq(rng) % kFirstSpi; // SGI ids too
        bool raise = rng.chance(0.6);
        if (raise)
            mach.gicd().raisePpi(c, irq);
        else
            mach.gicd().clearPpi(c, irq);
        m.gicd.banks[c].ppiPending[irq] = raise;
        break;
      }
      case 6:
        if (rng.chance(0.5)) {
            bool en = rng.chance(0.9);
            mach.gicc().write(c, gicc::CTLR, en, 4);
            m.gicc[c].enabled = en;
        } else {
            std::uint8_t pmr = pickPriority(rng);
            mach.gicc().write(c, gicc::PMR, pmr, 4);
            m.gicc[c].pmr = pmr;
        }
        break;
      case 7:
      case 8: {
        std::uint64_t got = mach.gicc().read(c, gicc::IAR, 4);
        std::uint32_t want = m.iar(c);
        if (got != want)
            return ::testing::AssertionFailure()
                   << "cpu" << c << " IAR " << got << ", model " << want;
        break;
      }
      case 9: {
        const auto &active = m.gicc[c].active;
        if (active.empty())
            break;
        const PendingIrq &p = active[rng.range(active.size())];
        mach.gicc().write(c, gicc::EOIR, iarValue(p.irq, p.source), 4);
        m.eoir(c, p.irq);
        break;
      }
      case 10:
      case 11: { // emulated distributor register, trapped from the guest
        auto [off, v] = pickDistWrite(rng, n);
        vdist.handleMmio(cpu, vcpu, off, true, v, 4);
        if (off == gicd::SGIR)
            m.vdist.sgir(c, v);
        else
            m.vdist.write(c, off, v);
        break;
      }
      case 12: {
        IrqId irq = pickIrq(rng);
        if (irq < kFirstSpi)
            irq += kFirstSpi;
        vdist.injectSpi(cpu, irq);
        m.vdist.spiPending[irq] = true;
        break;
      }
      case 13: {
        IrqId ppi = kFirstPpi + static_cast<IrqId>(rng.range(16));
        unsigned t = static_cast<unsigned>(rng.range(n));
        vdist.injectPpi(cpu, rig.vcpu(t), ppi);
        m.vdist.banks[t].ppiPending[ppi] = true;
        break;
      }
      case 14:
        vdist.flushToShadow(vcpu);
        m.flush(c);
        break;
      case 15:
        vdist.syncFromShadow(vcpu);
        m.sync(c);
        break;
      case 16: { // the guest acks or EOIs through its shadow list register
        unsigned i = static_cast<unsigned>(rng.range(kNumListRegs));
        ListReg &lr = m.shadow[c].lr[i];
        if (lr.state == LrState::Active)
            lr = ListReg{};
        else if (lr.state != LrState::Empty)
            lr.state = LrState::Active;
        vcpu.vgicShadow.lr[i] = lr;
        break;
      }
      case 17: {
        std::uint32_t got = vdist.softAck(vcpu);
        std::uint32_t want = m.softAck(c);
        if (got != want)
            return ::testing::AssertionFailure()
                   << "vcpu" << c << " softAck " << got << ", model "
                   << want;
        break;
      }
      case 18: {
        const auto &active = m.softActive[c];
        if (active.empty())
            break;
        IrqId irq = active[rng.range(active.size())];
        vdist.softEoi(vcpu, irq);
        m.softEoi(c, irq);
        break;
      }
      case 19: {
        VgicBank &b = m.hyp[c];
        std::uint32_t v;
        if (rng.chance(0.5)) {
            v = static_cast<std::uint32_t>(rng.chance(0.8)) |
                (static_cast<std::uint32_t>(rng.chance(0.5)) << 1);
            mach.gich().write(c, gich::HCR, v, 4);
            b.en = v & 1;
            b.uie = v & 2;
        } else {
            static constexpr std::uint8_t kPmrs[] = {0, 1, 4, 16, 31, 0xFF};
            std::uint8_t pmr = kPmrs[rng.range(std::size(kPmrs))];
            v = static_cast<std::uint32_t>(rng.chance(0.8)) |
                (std::uint32_t{pmr} << 24);
            mach.gich().write(c, gich::VMCR, v, 4);
            b.vmEnabled = v & 1;
            b.vmPmr = pmr;
        }
        break;
      }
      case 20: {
        unsigned i = static_cast<unsigned>(rng.range(kNumListRegs));
        std::uint32_t v = pickLr(rng, m.hyp[c], i);
        mach.gich().write(c, gich::LR0 + 4 * i, v, 4);
        m.hyp[c].lr[i] = ListReg::unpack(v);
        break;
      }
      case 21: {
        std::uint64_t got = mach.gicv().read(c, gicc::IAR, 4);
        std::uint32_t want = m.gicvIar(c);
        if (got != want)
            return ::testing::AssertionFailure()
                   << "cpu" << c << " GICV IAR " << got << ", model "
                   << want;
        break;
      }
      case 22: {
        std::vector<IrqId> active;
        for (const ListReg &lr : m.hyp[c].lr) {
            if (lr.state == LrState::Active ||
                lr.state == LrState::PendingActive)
                active.push_back(lr.virq);
        }
        if (active.empty())
            break;
        IrqId virq = active[rng.range(active.size())];
        mach.gicv().write(c, gicc::EOIR, virq, 4);
        m.gicvEoir(c, virq);
        break;
      }
      default:
        if (rng.chance(0.5)) {
            bool en = rng.chance(0.9);
            mach.gicv().write(c, gicc::CTLR, en, 4);
            m.hyp[c].vmEnabled = en;
        } else {
            std::uint8_t pmr = static_cast<std::uint8_t>(
                rng.chance(0.5) ? rng.range(32) : 0xFF);
            mach.gicv().write(c, gicc::PMR, pmr, 4);
            m.hyp[c].vmPmr = pmr;
        }
        break;
    }
    return allMatch(rig, m);
}

TEST(GicPendingModel, SeededOpsMatchScanThroughSnapshotRestore)
{
    constexpr int kSteps = 3000;
    for (std::uint64_t seed : {1, 2, 3}) {
        for (unsigned n : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(n) + " CPUs");
            Rng rng(seed * 16 + n);
            auto rig = std::make_unique<Rig>(n);
            Model m(n);
            ASSERT_TRUE(allMatch(*rig, m)) << "at reset";

            const int restore_at = static_cast<int>(rng.range(kSteps));
            int phys_selected = 0, virt_selected = 0, lines_high = 0;
            for (int i = 0; i < kSteps; ++i) {
                if (i == restore_at) {
                    auto snap = rig->machine.takeSnapshot();
                    auto fresh = std::make_unique<Rig>(n);
                    fresh->machine.restoreSnapshot(*snap);
                    rig = std::move(fresh);
                    ASSERT_TRUE(allMatch(*rig, m))
                        << "after the restore at step " << i;
                }
                ASSERT_TRUE(step(rng, *rig, m)) << "step " << i;
                for (unsigned c = 0; c < n; ++c) {
                    phys_selected += m.gicd.best(c).irq != kSpuriousIrq;
                    virt_selected += m.vdist.best(c).irq != kSpuriousIrq;
                    lines_high += m.irqLine(c) + m.virqLine(c);
                }
            }
            // The sequences reach the interesting states, not only
            // all-spurious ones.
            EXPECT_GT(phys_selected, kSteps / 10);
            EXPECT_GT(virt_selected, kSteps / 10);
            EXPECT_GT(lines_high, kSteps / 10);
        }
    }
}

} // namespace
} // namespace kvmarm
