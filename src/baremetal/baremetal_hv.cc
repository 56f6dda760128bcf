#include "baremetal/baremetal_hv.hh"

#include "sim/logging.hh"

namespace kvmarm::baremetal {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::ExcClass;
using arm::Hsr;
using arm::Mode;
using arm::Perms;

BareMetalHv::BareMetalHv(ArmMachine &machine) : machine_(machine)
{
}

Addr
BareMetalHv::allocPage()
{
    // Static hypervisor memory: a bump allocator over the top of RAM.
    // This *is* the "entire new memory allocation subsystem" the paper
    // says a bare-metal design must write (§3.3) — the minimal version.
    if (bumpNext_ == 0)
        bumpNext_ = machine_.ram().base() + machine_.ram().size();
    bumpNext_ -= kPageSize;
    machine_.ram().zeroPage(bumpNext_);
    return bumpNext_;
}

void
BareMetalHv::boot(ArmCpu &cpu)
{
    cpu.setMode(Mode::Hyp);
    cpu.setHypVectors(this);

    if (!hypRoot_) {
        arm::PageTableEditor hyp_editor(
            arm::PtFormat::HypLpae,
            [this](Addr pa) { return machine_.ram().read(pa, 8); },
            [this](Addr pa, std::uint64_t v) {
                machine_.ram().write(pa, v, 8);
            },
            [this] { return allocPage(); });
        hypRoot_ = hyp_editor.newRoot();
        Perms mem;
        mem.user = false;
        for (Addr off = 0; off < machine_.ram().size();
             off += arm::kBlock2MSize) {
            Addr pa = ArmMachine::kRamBase + off;
            hyp_editor.mapBlock2M(hypRoot_, pa, pa, mem);
        }
        Perms dev;
        dev.user = false;
        dev.exec = false;
        dev.device = true;
        hyp_editor.map(hypRoot_, ArmMachine::kGicdBase,
                       ArmMachine::kGicdBase, dev);
        hyp_editor.map(hypRoot_, ArmMachine::kGiccBase,
                       ArmMachine::kGiccBase, dev);
        if (machine_.config().hwVgic) {
            hyp_editor.map(hypRoot_, ArmMachine::kGichBase,
                           ArmMachine::kGichBase, dev);
            hyp_editor.map(hypRoot_, ArmMachine::kGicvBase,
                           ArmMachine::kGicvBase, dev);
        }
    }
    cpu.hyp().httbr = hypRoot_;
    cpu.hyp().hsctlrM = true;

    // The hypervisor owns the GIC outright.
    cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
    cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
    cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
}

void
BareMetalHv::createGuest(Addr ipa_ram_size)
{
    if (!s2Editor_) {
        s2Editor_ = std::make_unique<arm::PageTableEditor>(
            arm::PtFormat::Stage2,
            [this](Addr pa) { return machine_.ram().read(pa, 8); },
            [this](Addr pa, std::uint64_t v) {
                machine_.ram().write(pa, v, 8);
            },
            [this] { return allocPage(); });
    }
    s2Root_ = s2Editor_->newRoot();
    guestRamSize_ = ipa_ram_size;

    // Static allocation: carve the partition up front and map it eagerly
    // with 2 MiB pages would be nicer; page granularity keeps the editor
    // simple and the point identical.
    guestRamPa_ = ArmMachine::kRamBase + 64 * kMiB;
    Perms p;
    p.user = true;
    for (Addr off = 0; off < ipa_ram_size; off += kPageSize) {
        s2Editor_->map(s2Root_, ArmMachine::kRamBase + off,
                       guestRamPa_ + off, p);
    }
    if (machine_.config().hwVgic) {
        Perms dev;
        dev.user = true;
        dev.exec = false;
        dev.device = true;
        s2Editor_->map(s2Root_, ArmMachine::kGiccBase,
                       ArmMachine::kGicvBase, dev);
    }
}

void
BareMetalHv::runGuest(ArmCpu &cpu,
                      const std::function<void(ArmCpu &)> &guest_main,
                      arm::OsVectors *guest_os)
{
    const auto &cm = machine_.cost();

    // Enter the guest: configure traps + Stage-2 and drop to kernel mode.
    // There is no host context to save — the hypervisor's own state lives
    // in Hyp-banked registers (paper §2).
    arm::HypState &h = cpu.hyp();
    h.hcr.vm = true;
    h.hcr.imo = true;
    h.hcr.fmo = true;
    h.hcr.twi = true;
    h.hcr.tsc = true;
    h.hcr.tac = true;
    h.hcr.swio = true;
    h.hcr.tidcp = true;
    h.vttbr = s2Root_ | (1ull << 48);
    cpu.compute(arm::kWorldSwitchTrapConfigWrites * cm.ctrlRegAccess +
                cm.stage2Serialize);
    cpu.setOsVectors(guest_os);
    cpu.setMode(Mode::Svc);
    cpu.setIrqMasked(false);

    guest_main(cpu);
    cpu.hvc(bmhvc::kStopGuest);
}

void
BareMetalHv::handleStage2Fault(ArmCpu &cpu, const Hsr &hsr)
{
    Addr ipa = hsr.hpfar | (hsr.hdfar & (kPageSize - 1));
    if (ipa >= kHypDevBase && ipa < kHypDevBase + 0x1000) {
        // In-hypervisor device emulation: no world switch, no kernel.
        stats.inc("bm.iodev");
        cpu.compute(300);
        cpu.completeMmio(0);
        return;
    }
    panic("baremetal-hv: unexpected Stage-2 fault at %#llx (static "
          "allocation maps all guest RAM up front)",
          static_cast<unsigned long long>(ipa));
}

void
BareMetalHv::hypTrap(ArmCpu &cpu, const Hsr &hsr)
{
    const auto &cm = machine_.cost();
    // The guest's trapped registers the handler clobbers are spilled to
    // the Hyp stack — a dozen registers, not the full Table 1 context.
    cpu.compute(12 * cm.gpRegSave);

    switch (hsr.ec) {
      case ExcClass::Hvc:
        if (hsr.iss == bmhvc::kTestHypercall) {
            stats.inc("bm.hypercall");
            cpu.compute(140); // dispatch + handler
            return;
        }
        if (hsr.iss == bmhvc::kStopGuest) {
            cpu.hyp().hcr.vm = false;
            cpu.setHypReturn(Mode::Hyp, true);
            return;
        }
        return;
      case ExcClass::DataAbort:
        handleStage2Fault(cpu, hsr);
        return;
      case ExcClass::Wfi:
        stats.inc("bm.wfi");
        // One VM per core: idle in the hypervisor until an interrupt.
        cpu.waitUntil([&] { return cpu.interruptPending(); });
        return;
      case ExcClass::Irq:
        // Hypervisor-owned interrupt: ACK/EOI right here in Hyp mode.
        stats.inc("bm.irq");
        {
            std::uint32_t iar = static_cast<std::uint32_t>(cpu.memRead(
                ArmMachine::kGiccBase + arm::gicc::IAR, 4));
            if ((iar & 0x3FF) != arm::kSpuriousIrq) {
                cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR,
                             iar);
            }
        }
        return;
      default:
        stats.inc("bm.emul");
        cpu.compute(300); // in-hypervisor emulation
        cpu.setTrappedReadValue(0);
        return;
    }
}

} // namespace kvmarm::baremetal
