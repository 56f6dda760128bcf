#include "core/vgic_emul.hh"

#include <algorithm>

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "core/kvm.hh"
#include "core/vm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::ListReg;
using arm::LrState;

namespace {
constexpr std::uint8_t kDefaultPrio = 0xA0;
} // namespace

VgicDistEmul::VgicDistEmul(Vm &vm)
    : Snapshottable(&vm.kvm().machine(), "vdist-" + std::to_string(vm.vmid())),
      vm_(vm)
{
    spiPriority_.fill(kDefaultPrio);
    spiTargets_.fill(0x01);
    live_.rebuild(banks_, spiPending_, spiEnabled_, spiTargets_);
}

void
VgicDistEmul::syncLive(unsigned idx, IrqId irq)
{
    if (irq < arm::kFirstSpi)
        live_.syncPrivate(idx, irq, banks_[idx]);
    else
        live_.syncSpi(irq, spiPending_[irq], spiEnabled_[irq]);
}

VgicDistEmul::Bank &
VgicDistEmul::bankAt(unsigned idx)
{
    if (banks_.size() <= idx) {
        banks_.resize(idx + 1);
        live_.resize(idx + 1);
    }
    return banks_[idx];
}

VgicDistEmul::Bank &
VgicDistEmul::bankFor(const VCpu &vcpu)
{
    return bankAt(vcpu.index());
}

const VgicDistEmul::Bank &
VgicDistEmul::bankFor(const VCpu &vcpu) const
{
    return const_cast<VgicDistEmul *>(this)->bankFor(vcpu);
}

Cycles
VgicDistEmul::lockCost() const
{
    // The emulated distributor is shared VM state: every access takes the
    // distributor lock (paper §6: "this emulated access must be
    // synchronized between virtual cores using a software locking
    // mechanism, which adds significant overhead for IPIs").
    return 2 * vm_.kvm().machine().cost().atomicOp;
}

arm::PendingIrq
VgicDistEmul::bestPending(const VCpu &vcpu) const
{
    if (!ctlrEnabled_)
        return {};
    return live_.select(vcpu.index(), bankFor(vcpu), spiPriority_);
}

void
VgicDistEmul::consume(VCpu &vcpu, const arm::PendingIrq &c)
{
    Bank &bank = bankFor(vcpu);
    if (c.irq < arm::kNumSgis)
        bank.sgiSources[c.irq] &=
            static_cast<std::uint16_t>(~(1u << c.source));
    else if (c.irq < arm::kFirstSpi)
        bank.ppiPending[c.irq] = false;
    else
        spiPending_[c.irq] = false;
    syncLive(vcpu.index(), c.irq);
}

void
VgicDistEmul::updateSoftPending(VCpu &vcpu)
{
    vcpu.softVirqPending = bestPending(vcpu).irq != arm::kSpuriousIrq;
}

bool
VgicDistEmul::hasPendingFor(const VCpu &vcpu) const
{
    if (bestPending(vcpu).irq != arm::kSpuriousIrq)
        return true;
    for (const ListReg &lr : vcpu.vgicShadow.lr) {
        if (lr.state == LrState::Pending || lr.state == LrState::PendingActive)
            return true;
    }
    return false;
}

void
VgicDistEmul::flushToShadow(VCpu &vcpu)
{
    arm::VgicBank &sh = vcpu.vgicShadow;
    sh.en = true;

    // Fill every empty list register with the best software-pending
    // interrupt ("the distributor will program the list registers the
    // next time the VCPU runs", paper §3.5).
    for (ListReg &lr : sh.lr) {
        if (lr.state != LrState::Empty)
            continue;
        arm::PendingIrq c = bestPending(vcpu);
        if (c.irq == arm::kSpuriousIrq)
            break;
        consume(vcpu, c);
        lr = ListReg{};
        lr.virq = c.irq;
        lr.priority = c.priority >> 3; // 5-bit LR priority field
        lr.state = LrState::Pending;
        lr.source = static_cast<CpuId>(c.source);
    }

    // More pending than list registers: enable the underflow maintenance
    // interrupt so the hypervisor refills when the LRs drain.
    sh.uie = bestPending(vcpu).irq != arm::kSpuriousIrq;
}

void
VgicDistEmul::syncFromShadow(VCpu &vcpu)
{
    Bank &bank = bankFor(vcpu);
    for (ListReg &lr : vcpu.vgicShadow.lr) {
        switch (lr.state) {
          case LrState::Empty:
            // Delivered and EOIed (or never used); nothing to do.
            break;
          case LrState::Pending:
            // Never acknowledged: return it to the software pending state
            // so it can be rerouted (e.g. if the VCPU migrates).
            if (lr.virq < arm::kNumSgis)
                bank.sgiSources[lr.virq] |=
                    static_cast<std::uint16_t>(1u << lr.source);
            else if (lr.virq < arm::kFirstSpi)
                bank.ppiPending[lr.virq] = true;
            else
                spiPending_[lr.virq] = true;
            syncLive(vcpu.index(), lr.virq);
            lr = ListReg{};
            break;
          case LrState::Active:
          case LrState::PendingActive:
            // Guest is mid-handler; the slot stays occupied in the shadow
            // and is rewritten at the next entry.
            break;
        }
    }
}

void
VgicDistEmul::kickVcpu(ArmCpu &current_cpu, VCpu &target)
{
    const auto &cm = vm_.kvm().machine().cost();
    if (target.blocked) {
        target.kicked = true;
        vm_.kvm().machine().cpuBase(target.physCpu())
            .kickAt(current_cpu.now() + cm.ipiWire);
        return;
    }
    VCpu *resident = vm_.kvm().lowvisor().running(target.physCpu());
    if (resident == &target && target.physCpu() != current_cpu.id()) {
        // Force the remote VCPU out of guest mode with a physical SGI so
        // it picks up the new virtual interrupt state. When the caller is
        // the user-space emulator, the SGI is sent via an ioctl into the
        // kernel.
        arm::Mode saved = current_cpu.mode();
        if (saved == arm::Mode::Usr) {
            const host::HostCosts &hc = vm_.kvm().host().costs();
            current_cpu.compute(hc.userToKernel + hc.kernelToUser);
            current_cpu.setMode(arm::Mode::Svc);
        }
        std::uint32_t sgir = (1u << (16 + target.physCpu())) | Kvm::kKickSgi;
        current_cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::SGIR, sgir);
        current_cpu.setMode(saved);
    }
    if (resident == &target && target.physCpu() == current_cpu.id()) {
        // Same-CPU injection (e.g. the vtimer-emulation hrtimer firing
        // under the running guest): surface it as the host timer's
        // physical PPI so the guest exits and the next entry delivers
        // the virtual interrupt. If an exit is already in flight the
        // host just acknowledges the tick.
        vm_.kvm().machine().gicd().raisePpi(current_cpu.id(),
                                            arm::kHypTimerPpi);
    }
}

void
VgicDistEmul::injectSpi(ArmCpu &current_cpu, IrqId irq)
{
    if (irq < arm::kFirstSpi || irq >= arm::kMaxIrqs)
        fatal("vgic: injectSpi with bad irq %u", irq);
    current_cpu.compute(lockCost());
    spiPending_[irq] = true;
    syncLive(0, irq);
    unsigned target = routeSpi(irq);
    if (target < vm_.vcpus().size()) {
        VCpu &vcpu = *vm_.vcpus()[target];
        if (!vm_.kvm().config().useVgic)
            updateSoftPending(vcpu);
        kickVcpu(current_cpu, vcpu);
    }
}

void
VgicDistEmul::injectPpi(ArmCpu &current_cpu, VCpu &target, IrqId ppi)
{
    if (ppi < arm::kFirstPpi || ppi >= arm::kFirstSpi)
        fatal("vgic: injectPpi with bad ppi %u", ppi);
    current_cpu.compute(lockCost());
    bankFor(target).ppiPending[ppi] = true;
    syncLive(target.index(), ppi);
    if (!vm_.kvm().config().useVgic)
        updateSoftPending(target);
    kickVcpu(current_cpu, target);
}

unsigned
VgicDistEmul::routeSpi(IrqId irq) const
{
    std::uint8_t mask = spiTargets_[irq];
    for (unsigned i = 0; i < 8; ++i) {
        if (mask & (1u << i))
            return i;
    }
    return 0;
}

std::uint32_t
VgicDistEmul::softAck(VCpu &vcpu)
{
    arm::PendingIrq c = bestPending(vcpu);
    if (c.irq == arm::kSpuriousIrq) {
        updateSoftPending(vcpu);
        return arm::kSpuriousIrq;
    }
    consume(vcpu, c);
    bankFor(vcpu).softActive.push_back(c.irq);
    updateSoftPending(vcpu);
    return c.irq | (c.irq < arm::kNumSgis ? (c.source << 10) : 0);
}

void
VgicDistEmul::softEoi(VCpu &vcpu, std::uint32_t value)
{
    IrqId irq = value & 0x3FF;
    auto &active = bankFor(vcpu).softActive;
    auto it = std::find(active.rbegin(), active.rend(), irq);
    if (it == active.rend()) {
        warn("vgic: soft EOI for inactive irq %u", irq);
        return;
    }
    active.erase(std::next(it).base());
    updateSoftPending(vcpu);
}

void
VgicDistEmul::writeSgir(ArmCpu &cpu, VCpu &sender, std::uint32_t value)
{
    unsigned filter = bits(value, 25, 24);
    std::uint8_t target_list = static_cast<std::uint8_t>(bits(value, 23, 16));
    IrqId sgi = static_cast<IrqId>(bits(value, 3, 0));
    unsigned nvcpus = static_cast<unsigned>(vm_.vcpus().size());

    std::uint8_t mask = 0;
    switch (filter) {
      case 0:
        mask = target_list;
        break;
      case 1:
        mask = static_cast<std::uint8_t>(((1u << nvcpus) - 1) &
                                         ~(1u << sender.index()));
        break;
      case 2:
        mask = static_cast<std::uint8_t>(1u << sender.index());
        break;
      default:
        return;
    }

    // Sending a virtual IPI requires the distributor lock plus routing
    // and per-target bookkeeping (paper §6).
    cpu.compute(2 * lockCost() + vm_.kvm().config().sgirEmulationCost);

    for (unsigned t = 0; t < nvcpus; ++t) {
        if (!(mask & (1u << t)))
            continue;
        VCpu &target = *vm_.vcpus()[t];
        setSgiPending(t, sgi, sender.index());
        if (!vm_.kvm().config().useVgic)
            updateSoftPending(target);
        if (t != sender.index())
            kickVcpu(cpu, target);
    }
}

void
VgicDistEmul::setSgiPending(unsigned target_idx, IrqId sgi,
                            unsigned source_idx)
{
    bankAt(target_idx).sgiSources[sgi] |=
        static_cast<std::uint16_t>(1u << source_idx);
    syncLive(target_idx, sgi);
}

std::uint64_t
VgicDistEmul::handleMmio(ArmCpu &cpu, VCpu &vcpu, Addr offset, bool is_write,
                         std::uint64_t value, unsigned len)
{
    (void)len;
    cpu.compute(lockCost());
    Bank &bank = bankFor(vcpu);
    std::uint32_t v = static_cast<std::uint32_t>(value);

    if (is_write) {
        // Applies @p fn to each IRQ whose bit is set in a 32-IRQ register
        // word, then re-derives its live bit.
        auto each_bit = [&](Addr reg_base, auto fn) {
            unsigned word = (offset - reg_base) / 4;
            for (unsigned i = 0; i < 32; ++i) {
                IrqId irq = word * 32 + i;
                if (irq >= arm::kMaxIrqs || !(v & (1u << i)))
                    continue;
                fn(irq);
                syncLive(vcpu.index(), irq);
            }
        };
        if (offset == arm::gicd::CTLR) {
            ctlrEnabled_ = v & 1;
            for (auto &vc : vm_.vcpus())
                updateSoftPending(*vc);
        } else if (offset == arm::gicd::SGIR) {
            writeSgir(cpu, vcpu, v);
        } else if (offset >= arm::gicd::ISENABLER &&
                   offset < arm::gicd::ISENABLER + 0x80) {
            each_bit(arm::gicd::ISENABLER, [&](IrqId irq) {
                (irq < arm::kFirstSpi ? bank.enabled[irq]
                                      : spiEnabled_[irq]) = true;
            });
        } else if (offset >= arm::gicd::ICENABLER &&
                   offset < arm::gicd::ICENABLER + 0x80) {
            each_bit(arm::gicd::ICENABLER, [&](IrqId irq) {
                (irq < arm::kFirstSpi ? bank.enabled[irq]
                                      : spiEnabled_[irq]) = false;
            });
        } else if (offset >= arm::gicd::ICPENDR &&
                   offset < arm::gicd::ICPENDR + 0x80) {
            // Clear-pending, as the physical distributor honours it.
            each_bit(arm::gicd::ICPENDR, [&](IrqId irq) {
                if (irq < arm::kNumSgis)
                    bank.sgiSources[irq] = 0;
                else if (irq < arm::kFirstSpi)
                    bank.ppiPending[irq] = false;
                else
                    spiPending_[irq] = false;
            });
        } else if (offset >= arm::gicd::IPRIORITYR &&
                   offset < arm::gicd::IPRIORITYR + arm::kMaxIrqs) {
            IrqId irq = static_cast<IrqId>(offset - arm::gicd::IPRIORITYR);
            if (irq < arm::kFirstSpi)
                bank.priority[irq] = static_cast<std::uint8_t>(v);
            else
                spiPriority_[irq] = static_cast<std::uint8_t>(v);
        } else if (offset >= arm::gicd::ITARGETSR &&
                   offset < arm::gicd::ITARGETSR + arm::kMaxIrqs) {
            IrqId irq = static_cast<IrqId>(offset - arm::gicd::ITARGETSR);
            if (irq >= arm::kFirstSpi) {
                spiTargets_[irq] = static_cast<std::uint8_t>(v);
                live_.route(irq, spiTargets_[irq]);
            }
        }
        return 0;
    }

    if (offset == arm::gicd::CTLR)
        return ctlrEnabled_ ? 1 : 0;
    if (offset == arm::gicd::TYPER)
        return ((vm_.vcpus().size() - 1) << 5) | (arm::kMaxIrqs / 32 - 1);
    if (offset >= arm::gicd::IPRIORITYR &&
        offset < arm::gicd::IPRIORITYR + arm::kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - arm::gicd::IPRIORITYR);
        return irq < arm::kFirstSpi ? bank.priority[irq] : spiPriority_[irq];
    }
    if (offset >= arm::gicd::ITARGETSR &&
        offset < arm::gicd::ITARGETSR + arm::kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - arm::gicd::ITARGETSR);
        return irq < arm::kFirstSpi ? (1u << vcpu.index())
                                    : spiTargets_[irq];
    }
    if (offset >= arm::gicd::ISPENDR && offset < arm::gicd::ISPENDR + 0x80) {
        unsigned word = (offset - arm::gicd::ISPENDR) / 4;
        std::uint32_t out = 0;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= arm::kMaxIrqs)
                break;
            bool p;
            if (irq < arm::kNumSgis)
                p = bank.sgiSources[irq] != 0;
            else if (irq < arm::kFirstSpi)
                p = bank.ppiPending[irq];
            else
                p = spiPending_[irq];
            out |= p ? (1u << i) : 0;
        }
        return out;
    }
    return 0;
}

} // namespace kvmarm::core
