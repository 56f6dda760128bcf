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

VgicDistEmul::VgicDistEmul(Vm &vm)
    : Snapshottable(&vm.kvm().machine(), "vdist-" + std::to_string(vm.vmid())),
      vm_(vm), state_(0)
{
}

void
VgicDistEmul::addVcpu(unsigned nvcpus)
{
    state_.grow(nvcpus);
    softActive_.resize(nvcpus);
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
    return state_.best(vcpu.index());
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
        state_.consume(vcpu.index(), c);
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
    for (ListReg &lr : vcpu.vgicShadow.lr) {
        switch (lr.state) {
          case LrState::Empty:
            // Delivered and EOIed (or never used); nothing to do.
            break;
          case LrState::Pending:
            // Never acknowledged: return it to the software pending state
            // so it can be rerouted (e.g. if the VCPU migrates).
            state_.pend(vcpu.index(), lr.virq, lr.source);
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
    state_.pend(0, irq, 0);
    unsigned nvcpus = static_cast<unsigned>(vm_.vcpus().size());
    unsigned target = state_.spiTarget(irq, nvcpus);
    if (target < nvcpus) {
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
    state_.pend(target.index(), ppi, 0);
    if (!vm_.kvm().config().useVgic)
        updateSoftPending(target);
    kickVcpu(current_cpu, target);
}

std::uint32_t
VgicDistEmul::softAck(VCpu &vcpu)
{
    arm::PendingIrq c = bestPending(vcpu);
    if (c.irq == arm::kSpuriousIrq) {
        updateSoftPending(vcpu);
        return arm::kSpuriousIrq;
    }
    state_.consume(vcpu.index(), c);
    softActive_[vcpu.index()].irqs.push_back(c.irq);
    updateSoftPending(vcpu);
    return c.irq | (c.irq < arm::kNumSgis ? (c.source << 10) : 0);
}

void
VgicDistEmul::softEoi(VCpu &vcpu, std::uint32_t value)
{
    IrqId irq = value & 0x3FF;
    auto &active = softActive_[vcpu.index()].irqs;
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
    unsigned nvcpus = static_cast<unsigned>(vm_.vcpus().size());
    auto sgi = arm::GicDistState::decodeSgir(value, sender.index(), nvcpus);
    if (!sgi)
        return;

    // Sending a virtual IPI requires the distributor lock plus routing
    // and per-target bookkeeping (paper §6).
    cpu.compute(2 * lockCost() + vm_.kvm().config().sgirEmulationCost);

    for (unsigned t = 0; t < nvcpus; ++t) {
        if (!(sgi->cpus & (1u << t)))
            continue;
        VCpu &target = *vm_.vcpus()[t];
        state_.pend(t, sgi->sgi, sender.index());
        if (!vm_.kvm().config().useVgic)
            updateSoftPending(target);
        if (t != sender.index())
            kickVcpu(cpu, target);
    }
}

std::uint64_t
VgicDistEmul::handleMmio(ArmCpu &cpu, VCpu &vcpu, Addr offset, bool is_write,
                         std::uint64_t value, unsigned len)
{
    (void)len;
    cpu.compute(lockCost());
    unsigned idx = vcpu.index();
    if (!is_write)
        return state_.read(idx, offset,
                           static_cast<unsigned>(vm_.vcpus().size()));
    std::uint32_t v = static_cast<std::uint32_t>(value);
    if (offset == arm::gicd::SGIR) {
        writeSgir(cpu, vcpu, v);
    } else if (state_.write(idx, offset, v) && !vm_.kvm().config().useVgic) {
        // Without a VGIC the pending flag feeds HCR.VI on the next entry:
        // an enable, clear, priority or retarget can change any VCPU's.
        for (auto &vc : vm_.vcpus())
            updateSoftPending(*vc);
    }
    return 0;
}

} // namespace kvmarm::core
