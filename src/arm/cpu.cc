#include "arm/cpu.hh"

#include "arm/gic.hh"
#include "arm/machine.hh"
#include "arm/vgic.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include "sim/logging.hh"

namespace kvmarm::arm {

ArmCpu::ArmCpu(CpuId id, ArmMachine &machine)
    : CpuBase(id, machine), armMachine_(machine),
      checkEngine_(machine.checkEngine()), mmu_(*this)
{
    regs_[CtrlReg::MIDR] = 0x412FC0F0; // Cortex-A15 r2p0
    regs_[CtrlReg::MPIDR] = 0x80000000 | id;
}

ArmMachine &
ArmCpu::machine()
{
    return armMachine_;
}

const ArmMachine &
ArmCpu::machine() const
{
    return armMachine_;
}

void
ArmCpu::trapToHyp(const Hsr &hsr)
{
    if (!hypVectors_) {
        panic("cpu%u: trap to Hyp mode (%s) with no vectors installed — "
              "was the kernel booted in Hyp mode?",
              id_, excClassName(hsr.ec));
    }
    stats_.inc(kTrapStats[static_cast<std::size_t>(hsr.ec)]);

    // Save the trapped-from state; the handler may retarget the ERET via
    // setHypReturn (SPSR_hyp semantics). Nested traps (an IRQ trapping to
    // Hyp during a world switch is impossible — Hyp masks — but PL1
    // handlers invoked inline can trap again) save/restore around the
    // handler call.
    Mode prev_trapped_mode = hypTrappedMode_;
    bool prev_trapped_mask = hypTrappedMask_;
    Mode prev_return_mode = hypReturnMode_;
    bool prev_return_mask = hypReturnMask_;

    hypTrappedMode_ = mode_;
    hypTrappedMask_ = irqMasked_;
    hypReturnMode_ = mode_;
    hypReturnMask_ = irqMasked_;
    setMode(Mode::Hyp);
    regs_[GpReg::ElrHyp] = regs_[GpReg::Pc];
    // Charge the trap entry only after the mode change: interrupts are
    // not deliverable while in Hyp mode.
    addCycles(armMachine_.cost().hypTrapEntry);

    hypVectors_->hypTrap(*this, hsr);

    addCycles(armMachine_.cost().hypEret);
    setMode(hypReturnMode_);
    irqMasked_ = hypReturnMask_;

    hypTrappedMode_ = prev_trapped_mode;
    hypTrappedMask_ = prev_trapped_mask;
    hypReturnMode_ = prev_return_mode;
    hypReturnMask_ = prev_return_mask;
}

bool
ArmCpu::takePageFaultToKernel(Addr va, bool write, Access acc)
{
    if (!osVectors_)
        panic("cpu%u: stage-1 fault at %#llx with no OS vectors", id_,
              static_cast<unsigned long long>(va));
    stats_.inc("fault.stage1");

    Mode saved_mode = mode_;
    bool saved_mask = irqMasked_;
    bool user = saved_mode == Mode::Usr;
    setMode(Mode::Abt);
    irqMasked_ = true;
    regs_[GpReg::SpsrAbt] = regs_[GpReg::Cpsr];
    regs_[GpReg::LrAbt] = regs_[GpReg::Pc];
    regs_[CtrlReg::DFAR] = static_cast<std::uint32_t>(va);
    regs_[CtrlReg::DFSR] = write ? 0x805 : 0x005;
    addCycles(armMachine_.cost().kernelEntry);

    bool handled = osVectors_->pageFault(*this, va, write, user);

    addCycles(armMachine_.cost().kernelEret);
    setMode(saved_mode);
    irqMasked_ = saved_mask;
    (void)acc;
    return handled;
}

std::uint64_t
ArmCpu::accessMem(Addr va, bool write, std::uint64_t value, unsigned len,
                  bool isv, const Tlb::Probe *probe)
{
    Access acc = write ? Access::Write : Access::Read;
    for (int attempt = 0; attempt < 16; ++attempt) {
        TranslateResult tr = mmu_.translate(va, acc, mode_, probe);
        probe = nullptr; // a retry follows a trap that may change the TLB
        const std::uint64_t tlb_epoch = mmu_.tlb().epoch();
        if (tr.cost)
            addCycles(tr.cost);
        if (tr.ok) {
            // One decode and one access, whose target the TLB slot then
            // keeps as its view, unless the charge or a device changed
            // the TLB: the slot may hold another key by now.
            const std::optional<Bus::Target> t =
                armMachine_.bus().decode(tr.pa, write);
            if (!t) {
                panic("cpu%u: external abort at PA %#llx (va %#llx)", id_,
                      static_cast<unsigned long long>(tr.pa),
                      static_cast<unsigned long long>(va));
            }
            const std::uint64_t v = t->access(id_, tr.pa, write, value, len);
            if (tr.slot != Tlb::kNone && mmu_.tlb().epoch() == tlb_epoch)
                mmu_.tlb().view(tr.slot) = *t;
            addCycles(t->latency);
            return v;
        }
        if (tr.stage2) {
            Hsr hsr;
            hsr.ec = ExcClass::DataAbort;
            hsr.hpfar = pageAlignDown(tr.faultAddr);
            hsr.hdfar = va;
            hsr.isWrite = write;
            hsr.isv = isv;
            hsr.srt = 0;
            hsr.accessLen = static_cast<std::uint8_t>(len);
            hsr.sysValue = static_cast<std::uint32_t>(value);
            trapToHyp(hsr);
            if (mmioPending_) {
                mmioPending_ = false;
                return mmioValue_;
            }
            continue; // the hypervisor mapped the page; retry
        }
        if (!takePageFaultToKernel(va, write, acc)) {
            panic("cpu%u: unhandled stage-1 %s fault at va %#llx (%s)", id_,
                  faultTypeName(tr.fault), static_cast<unsigned long long>(va),
                  modeName(mode_));
        }
    }
    panic("cpu%u: fault livelock at va %#llx", id_, static_cast<unsigned long long>(va));
}

std::uint64_t
ArmCpu::accessPage(Addr va, bool write, std::uint64_t value, unsigned len,
                   bool isv)
{
    Tlb::Probe probe;
    const Tlb::View *view = mmu_.slotView(
        va, write ? Access::Write : Access::Read, mode_, probe);
    if (!view)
        return accessMem(va, write, value, len, isv, &probe);
    // translate()'s TLB hit, then the access. A device may change the
    // TLB, and with it the view: its cost is read first.
    Tlb &tlb = mmu_.tlb();
    tlb.countHit();
    const Cycles latency = view->latency;
    const std::uint64_t v =
        view->access(id_, tlb.entry(probe.hit).ppage | (va & (kPageSize - 1)),
                     write, value, len);
    addCycles(latency);
    return v;
}

std::uint64_t
ArmCpu::memRead(Addr va, unsigned len, bool isv)
{
    return splitAtPages(va, 0, len, [&](Addr a, std::uint64_t, unsigned n) {
        return accessPage(a, false, 0, n, isv);
    });
}

void
ArmCpu::memWrite(Addr va, std::uint64_t value, unsigned len, bool isv)
{
    splitAtPages(va, value, len, [&](Addr a, std::uint64_t v, unsigned n) {
        return accessPage(a, true, v, n, isv);
    });
}

void
ArmCpu::memTouch(Addr va, Access acc)
{
    if (acc == Access::Write)
        memWrite(va, 0, 4);
    else
        memRead(va, 4);
}

void
ArmCpu::regBurst(Addr base, std::span<const Addr> offsets,
                 std::span<std::uint32_t> values, bool write)
{
    if (offsets.size() != values.size())
        panic("cpu%u: register burst of %zu offsets but %zu values", id_,
              offsets.size(), values.size());
    if (offsets.empty() || burstRest(base, offsets, values, write))
        return;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        if (write)
            memWrite(base + offsets[i], values[i]);
        else
            values[i] = static_cast<std::uint32_t>(memRead(base + offsets[i]));
    }
}

bool
ArmCpu::burstRest(Addr base, std::span<const Addr> offsets,
                  std::span<std::uint32_t> values, bool write)
{
    Tlb::Probe probe;
    const Tlb::View *view =
        mmu_.slotView(base + offsets[0], write ? Access::Write : Access::Read,
                      mode_, probe);
    if (!view || !view->dev.dev)
        return false;
    // In Hyp mode the gate is closed, so when the whole burst's charge is
    // quiet, no charge inside it would run anything.
    const Cycles total = view->latency * offsets.size();
    if (!chargeIsQuiet(total))
        return false;
    // Every access must fall in the page and the region: its offset into
    // the page in [lo, hi).
    const Bus::Region r = view->dev;
    const Addr vpage = pageAlignDown(base + offsets[0]);
    const Addr ppage = mmu_.tlb().entry(probe.hit).ppage;
    const Addr lo = r.base > ppage ? r.base - ppage : 0;
    const Addr hi = std::min<Addr>(kPageSize, r.base + r.size - ppage);
    for (Addr off : offsets) {
        if (base + off - vpage - lo >= hi - lo)
            return false;
    }
    // The device offset of va == base; every base + off is in the page.
    const Addr dev_base = ppage - r.base + (base - vpage);
    if (!r.dev->accessBurst(id_, dev_base, offsets, values, write))
        return false;
    mmu_.tlb().countHits(offsets.size());
    addCycles(total);
    return true;
}

void
ArmCpu::completeMmio(std::uint64_t value)
{
    mmioPending_ = true;
    mmioValue_ = value;
}

void
ArmCpu::svc(std::uint32_t num)
{
    if (mode_ != Mode::Usr)
        panic("cpu%u: svc from non-user mode %s", id_, modeName(mode_));
    if (!osVectors_)
        panic("cpu%u: svc with no OS vectors", id_);

    Mode saved = mode_;
    bool saved_mask = irqMasked_;
    setMode(Mode::Svc);
    irqMasked_ = true;
    regs_[GpReg::SpsrSvc] = regs_[GpReg::Cpsr];
    regs_[GpReg::LrSvc] = regs_[GpReg::Pc];
    addCycles(armMachine_.cost().kernelEntry);

    osVectors_->svc(*this, num);

    addCycles(armMachine_.cost().kernelEret);
    setMode(saved);
    irqMasked_ = saved_mask;
}

void
ArmCpu::hvc(std::uint32_t imm)
{
    if (mode_ == Mode::Usr)
        panic("cpu%u: hvc from user mode is undefined", id_);
    Hsr hsr;
    hsr.ec = ExcClass::Hvc;
    hsr.iss = imm;
    trapToHyp(hsr);
}

void
ArmCpu::smc()
{
    if (hyp_.hcr.tsc && mode_ != Mode::Hyp) {
        Hsr hsr;
        hsr.ec = ExcClass::Smc;
        trapToHyp(hsr);
        return;
    }
    // Native: the secure monitor stub does nothing interesting.
    addCycles(armMachine_.cost().kernelEntry);
}

void
ArmCpu::wfi()
{
    if (hyp_.hcr.twi && mode_ != Mode::Hyp) {
        Hsr hsr;
        hsr.ec = ExcClass::Wfi;
        trapToHyp(hsr);
        return;
    }
    stats_.inc("wfi.native");
    // WFI completes once an interrupt occurs — even if it was serviced
    // while waiting (the wake condition is "interrupt taken or pending",
    // not "still pending").
    std::uint64_t before = interruptsTaken_;
    waitUntil([this, before] {
        return interruptPending() || interruptsTaken_ > before;
    });
}

void
ArmCpu::fpOp(Cycles c)
{
    if (hyp_.trapFpu && mode_ != Mode::Hyp) {
        Hsr hsr;
        hsr.ec = ExcClass::FpTrap;
        trapToHyp(hsr);
        // The hypervisor switched in this VCPU's FP state and cleared the
        // trap; the instruction then re-executes.
    }
    addCycles(c);
}

std::uint32_t
ArmCpu::sensitiveOp(SensitiveOp op, std::uint32_t value)
{
    addCycles(armMachine_.cost().ctrlRegAccess);

    bool trap = false;
    ExcClass ec = ExcClass::Cp15Trap;
    switch (op) {
      case SensitiveOp::ActlrRead:
      case SensitiveOp::ActlrWrite:
        trap = hyp_.hcr.tac;
        break;
      case SensitiveOp::CacheSetWay:
        trap = hyp_.hcr.swio;
        break;
      case SensitiveOp::L2ctlrRead:
      case SensitiveOp::L2ctlrWrite:
      case SensitiveOp::L2ectlrRead:
        trap = hyp_.hcr.tidcp;
        break;
      case SensitiveOp::Cp14Read:
      case SensitiveOp::Cp14Write:
        trap = hyp_.trapCp14;
        ec = ExcClass::Cp14Trap;
        break;
    }

    if (trap && mode_ != Mode::Hyp) {
        Hsr hsr;
        hsr.ec = ec;
        hsr.iss = static_cast<std::uint32_t>(op);
        hsr.sysWrite = op == SensitiveOp::ActlrWrite ||
                       op == SensitiveOp::L2ctlrWrite ||
                       op == SensitiveOp::Cp14Write ||
                       op == SensitiveOp::CacheSetWay;
        hsr.sysValue = value;
        trapToHyp(hsr);
        return static_cast<std::uint32_t>(trappedReadValue_);
    }

    switch (op) {
      case SensitiveOp::ActlrRead:
        return actlr;
      case SensitiveOp::ActlrWrite:
        actlr = value;
        return 0;
      case SensitiveOp::CacheSetWay:
        addCycles(200); // full set/way maintenance is slow
        return 0;
      case SensitiveOp::L2ctlrRead:
        return l2ctlr;
      case SensitiveOp::L2ctlrWrite:
        l2ctlr = value;
        return 0;
      case SensitiveOp::L2ectlrRead:
        return l2ectlr;
      case SensitiveOp::Cp14Read:
        return cp14Dbg;
      case SensitiveOp::Cp14Write:
        cp14Dbg = value;
        return 0;
    }
    return 0;
}

std::uint64_t
ArmCpu::readCntpct()
{
    addCycles(armMachine_.cost().ctrlRegAccess);
    if (privilegeLevel(mode_) <= 1 && !hyp_.pl1PhysTimerAccess) {
        Hsr hsr;
        hsr.ec = ExcClass::TimerTrap;
        hsr.iss = static_cast<std::uint32_t>(TimerAccess::ReadCntpct);
        trapToHyp(hsr);
        return trappedReadValue_;
    }
    return armMachine_.timer().physCount(id_);
}

std::uint64_t
ArmCpu::readCntvct()
{
    addCycles(armMachine_.cost().ctrlRegAccess);
    if (!armMachine_.config().hwVtimers && hyp_.hcr.vm) {
        // Hardware without virtual timers: in a VM the virtual counter
        // does not exist, the access traps and is emulated (in user space
        // on unoptimized KVM/ARM — the Figure 3 pipe/ctxsw anomaly).
        Hsr hsr;
        hsr.ec = ExcClass::TimerTrap;
        hsr.iss = static_cast<std::uint32_t>(TimerAccess::ReadCntvct);
        trapToHyp(hsr);
        return trappedReadValue_;
    }
    return armMachine_.timer().virtCount(id_);
}

TimerRegs
ArmCpu::readPhysTimer()
{
    addCycles(armMachine_.cost().ctrlRegAccess * 2); // CTL + CVAL
    if (privilegeLevel(mode_) <= 1 && !hyp_.pl1PhysTimerAccess) {
        Hsr hsr;
        hsr.ec = ExcClass::TimerTrap;
        hsr.iss = static_cast<std::uint32_t>(TimerAccess::PhysTimer);
        trapToHyp(hsr);
        return TimerRegs{};
    }
    return armMachine_.timer().phys(id_);
}

void
ArmCpu::writePhysTimer(const TimerRegs &regs)
{
    addCycles(armMachine_.cost().ctrlRegAccess * 2);
    if (privilegeLevel(mode_) <= 1 && !hyp_.pl1PhysTimerAccess) {
        Hsr hsr;
        hsr.ec = ExcClass::TimerTrap;
        hsr.iss = static_cast<std::uint32_t>(TimerAccess::PhysTimer);
        hsr.sysWrite = true;
        hsr.sysValue = (regs.enable ? 1u : 0) | (regs.imask ? 2u : 0);
        hsr.sysValue64 = regs.cval;
        trapToHyp(hsr);
        return;
    }
    armMachine_.timer().setPhys(id_, regs);
}

TimerRegs
ArmCpu::readVirtTimer()
{
    addCycles(armMachine_.cost().ctrlRegAccess * 2);
    if (!armMachine_.config().hwVtimers && hyp_.hcr.vm) {
        Hsr hsr;
        hsr.ec = ExcClass::TimerTrap;
        hsr.iss = static_cast<std::uint32_t>(TimerAccess::VirtTimer);
        trapToHyp(hsr);
        return TimerRegs{};
    }
    return armMachine_.timer().virt(id_);
}

void
ArmCpu::writeVirtTimer(const TimerRegs &regs)
{
    addCycles(armMachine_.cost().ctrlRegAccess * 2);
    if (!armMachine_.config().hwVtimers && hyp_.hcr.vm) {
        Hsr hsr;
        hsr.ec = ExcClass::TimerTrap;
        hsr.iss = static_cast<std::uint32_t>(TimerAccess::VirtTimer);
        hsr.sysWrite = true;
        hsr.sysValue = (regs.enable ? 1u : 0) | (regs.imask ? 2u : 0);
        hsr.sysValue64 = regs.cval;
        trapToHyp(hsr);
        return;
    }
    armMachine_.timer().setVirt(id_, regs);
}

void
ArmCpu::writeCntvoff(std::uint64_t off)
{
    KVMARM_CHECK_ON(checkEngine_, hypAccess(id_, mode_, "cntvoff"));
    if (mode_ != Mode::Hyp)
        panic("cpu%u: CNTVOFF write outside Hyp mode", id_);
    addCycles(armMachine_.cost().ctrlRegAccess);
    hyp_.cntvoff = off;
    armMachine_.timer().reprogram(id_);
}

std::uint32_t
ArmCpu::readCp15(CtrlReg r)
{
    addCycles(armMachine_.cost().ctrlRegAccess);
    return regs_[r];
}

void
ArmCpu::writeCp15(CtrlReg r, std::uint32_t v)
{
    addCycles(armMachine_.cost().ctrlRegAccess);
    regs_[r] = v;
}

void
ArmCpu::writeCp15_64(CtrlReg lo, CtrlReg hi, std::uint64_t v)
{
    addCycles(armMachine_.cost().ctrlRegAccess);
    regs_.write64(lo, hi, v);
}

void
ArmCpu::tlbiAll()
{
    addCycles(armMachine_.cost().tlbFlush);
    if (mode_ == Mode::Hyp) {
        mmu_.tlb().flushAll();
    } else {
        std::uint8_t vmid =
            hyp_.hcr.vm ? static_cast<std::uint8_t>(hyp_.vmid()) : 0;
        mmu_.tlb().flushVmid(vmid);
    }
}

void
ArmCpu::tlbiVa(Addr va)
{
    addCycles(35);
    mmu_.tlb().flushVa(pageAlignDown(va));
}

bool
ArmCpu::virtIrqLineHigh() const
{
    return (armMachine_.config().hwVgic && irqPin(kPinVirtIrq)) ||
           irqPin(kPinSoftVirq); // software-injected virtual IRQ (no VGIC)
}

bool
ArmCpu::interruptPending() const
{
    bool phys = irqPin(kPinPhysIrq);
    if (phys && mode_ != Mode::Hyp) {
        if (hyp_.hcr.imo)
            return true; // routed to Hyp regardless of CPSR.I
        if (!irqMasked_)
            return true;
    }
    return !irqMasked_ && privilegeLevel(mode_) <= 1 && virtIrqLineHigh();
}

void
ArmCpu::serviceInterrupts()
{
    // Only reached while irqDeliverable(): outside Hyp mode with a pin
    // high. The branches below still test the mode, because a delivery
    // changes it.
    if (inIrqService_)
        return;
    inIrqService_ = true;
    // Livelock detection: every real delivery advances the clock, so a
    // large number of iterations without progress means a handler is not
    // EOIing.
    Cycles progress_mark = now_;
    for (unsigned guard = 0; guard < 100000; ++guard) {
        if ((guard & 0xFF) == 0xFF) {
            if (now_ == progress_mark)
                break; // fall through to the panic below
            progress_mark = now_;
        }
        bool phys = irqPin(kPinPhysIrq);
        if (phys && hyp_.hcr.imo && mode_ != Mode::Hyp) {
            stats_.inc("irq.toHyp");
            Hsr hsr;
            hsr.ec = ExcClass::Irq;
            inIrqService_ = false;
            trapToHyp(hsr);
            inIrqService_ = true;
            continue;
        }
        if (phys && !irqMasked_ && mode_ != Mode::Hyp && osVectors_) {
            takeIrqToKernel();
            continue;
        }
        if (!irqMasked_ && privilegeLevel(mode_) <= 1 && osVectors_ &&
            virtIrqLineHigh()) {
            stats_.inc("irq.virtual");
            takeIrqToKernel();
            continue;
        }
        inIrqService_ = false;
        return;
    }
    inIrqService_ = false;
    {
        std::ostringstream os;
        stats_.dump(os, strfmt("cpu%u.", id_));
        std::fputs(os.str().c_str(), stderr);
    }
    PendingIrq best = armMachine_.gicd().bestPending(id_);
    panic("cpu%u: interrupt service livelock (handler not EOIing?) "
          "mode=%s masked=%d imo=%d physLine=%d virtLine=%d vi=%d "
          "bestPhys=%u os=%s",
          id_, modeName(mode_), irqMasked_, hyp_.hcr.imo,
          irqPin(kPinPhysIrq),
          armMachine_.config().hwVgic && irqPin(kPinVirtIrq),
          hyp_.hcr.vi, best.irq, osVectors_ ? osVectors_->name() : "none");
}

void
ArmCpu::takeIrqToKernel()
{
    stats_.inc("irq.toKernel");
    ++interruptsTaken_;
    Mode saved = mode_;
    bool saved_mask = irqMasked_;
    setMode(Mode::Irq);
    irqMasked_ = true;
    regs_[GpReg::SpsrIrq] = regs_[GpReg::Cpsr];
    regs_[GpReg::LrIrq] = regs_[GpReg::Pc];
    addCycles(armMachine_.cost().kernelEntry);

    osVectors_->irq(*this);

    addCycles(armMachine_.cost().kernelEret);
    setMode(saved);
    irqMasked_ = saved_mask;
}

} // namespace kvmarm::arm
