#include "workload/arm_port.hh"

#include "arm/gic.hh"
#include "sim/logging.hh"
#include "vdev/model_dev.hh"
#include "vdev/qemu.hh"

namespace kvmarm::wl {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::CtrlReg;
using arm::Mode;
using arm::Perms;

namespace {
/** Kernel cost of servicing a demand fault (handle_mm_fault path). */
constexpr Cycles kDemandFaultKernelWork = 850;
/** Kernel cost of delivering a SIGSEGV. */
constexpr Cycles kSignalWork = 420;
/** Zeroing a fresh page (cache-resident memset). */
constexpr Cycles kPageZeroWork = 320;
/** Reschedule SGI id (matches Linux's IPI_RESCHEDULE slot). */
constexpr IrqId kRescheduleSgi = 2;
} // namespace

ArmLinuxPort::ArmLinuxPort(ArmCpu &cpu, ArmOsImage &image, unsigned index)
    : cpu_(cpu), image_(image), index_(index),
      // Table words are read and written through the CPU, so every table
      // touch pays real translation costs (including Stage-2 when in a
      // VM).
      editor_(arm::PtFormat::KernelLpae,
              [this](Addr pa) { return cpu_.memRead(pa, 8); },
              [this](Addr pa, std::uint64_t v) { cpu_.memWrite(pa, v, 8); },
              [this] { return allocPage(); })
{
}

Addr
ArmLinuxPort::allocPage()
{
    if (image_.nextFreePage <= image_.ramBase + image_.ramSize / 2)
        fatal("mini-linux-arm: out of page frames");
    image_.nextFreePage -= kPageSize;
    kernelCompute(kPageZeroWork);
    return image_.nextFreePage;
}

void
ArmLinuxPort::buildKernelTables()
{
    image_.nextFreePage = image_.ramBase + image_.ramSize;
    image_.pgd = editor_.newRoot();

    Perms kmem;
    kmem.user = false;
    for (Addr off = 0; off < image_.ramSize; off += arm::kBlock2MSize)
        editor_.mapBlock2M(image_.pgd, image_.ramBase + off,
                           image_.ramBase + off, kmem);

    Perms dev;
    dev.user = false;
    dev.exec = false;
    dev.device = true;
    editor_.map(image_.pgd, ArmMachine::kGicdBase, ArmMachine::kGicdBase,
                dev);
    editor_.map(image_.pgd, ArmMachine::kGiccBase, ArmMachine::kGiccBase,
                dev);
    editor_.map(image_.pgd, ArmMachine::kUartBase, ArmMachine::kUartBase,
                dev);
    for (unsigned slot = 0; slot < 4; ++slot) {
        Addr base = ArmMachine::kVirtioBase + slot * 0x1000;
        editor_.map(image_.pgd, base, base, dev);
    }
}

void
ArmLinuxPort::gicInit()
{
    if (index_ == 0) {
        cpu_.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
        // Enable and route the emulated-device SPIs to CPU0.
        cpu_.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER + 4,
                      0xFFu << (vdev::kDevSpiBase - 32));
        for (unsigned slot = 0; slot < 8; ++slot) {
            cpu_.memWrite(ArmMachine::kGicdBase + arm::gicd::ITARGETSR +
                              vdev::kDevSpiBase + slot,
                          0x01);
        }
    }
    // Banked enables: SGIs + the virtual timer PPI.
    cpu_.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER,
                  0xFFFF | (1u << arm::kVirtTimerPpi));
    cpu_.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
    cpu_.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
}

void
ArmLinuxPort::boot()
{
    if (index_ == 0) {
        if (!image_.booted)
            buildKernelTables();
    } else {
        while (!image_.booted)
            cpu_.compute(300);
    }

    cpu_.writeCp15_64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, image_.pgd);
    cpu_.writeCp15(CtrlReg::TTBCR, 0);
    cpu_.writeCp15(CtrlReg::CONTEXTIDR, 1);
    cpu_.writeCp15(CtrlReg::SCTLR, cpu_.readCp15(CtrlReg::SCTLR) | 1);
    cpu_.setOsVectors(this);
    gicInit();
    cpu_.setIrqMasked(false);
    if (index_ == 0)
        image_.booted = true;
}

void
ArmLinuxPort::userCompute(Cycles c)
{
    Mode saved = cpu_.mode();
    cpu_.setMode(Mode::Usr);
    cpu_.compute(c);
    cpu_.setMode(saved);
}

void
ArmLinuxPort::timerProgram(Cycles delta)
{
    // clockevents_program_event: read the clock, write CTL+CVAL. Direct
    // hardware access with virtual timers (paper §3.6); traps to
    // user-space emulation without them.
    arm::TimerRegs regs;
    regs.enable = true;
    regs.imask = false;
    regs.cval = cpu_.readCntvct() + delta;
    cpu_.writeVirtTimer(regs);
}

void
ArmLinuxPort::syscallEdge()
{
    Mode saved = cpu_.mode();
    cpu_.setMode(Mode::Usr);
    cpu_.svc(0);
    cpu_.setMode(saved);
}

void
ArmLinuxPort::contextSwitchMmu()
{
    // switch_mm: rotate the ASID and point TTBR0 at the (shared, in this
    // model) page tables. ASID tagging avoids a TLB flush.
    asid_ = (asid_ % 3) + 1;
    cpu_.writeCp15(CtrlReg::CONTEXTIDR, asid_);
    cpu_.writeCp15_64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, image_.pgd);
}

void
ArmLinuxPort::sendRescheduleIpi(unsigned target_idx)
{
    cpu_.memWrite(ArmMachine::kGicdBase + arm::gicd::SGIR,
                  (1u << (16 + target_idx)) | kRescheduleSgi);
}

void
ArmLinuxPort::idle()
{
    cpu_.wfi();
    // Idle-exit bookkeeping; also lets the waking interrupt deliver
    // before the idle loop re-evaluates its condition.
    cpu_.compute(20);
}

void
ArmLinuxPort::demandFault()
{
    Addr va;
    bool fresh = faultPool_.size() < kPoolPages;
    if (fresh) {
        va = image_.nextUserVa;
        image_.nextUserVa += kPageSize;
    } else {
        // Steady state: recycle page-cache pages — unmap an old mapping
        // and fault it back in on warm Stage-2 state, as lmbench's
        // mmap/touch loop does on a real system.
        auto &[pool_va, pool_pa] =
            faultPool_[faultPoolIdx_++ % kPoolPages];
        va = pool_va;
        editor_.unmap(image_.pgd, va);
        cpu_.tlbiVa(va);
        pendingBackingPa_ = pool_pa;
    }

    Mode saved = cpu_.mode();
    cpu_.setMode(Mode::Usr);
    cpu_.memTouch(va, arm::Access::Write);
    cpu_.setMode(saved);

    if (fresh) {
        Addr pa = editor_.lookup(image_.pgd, va).value_or(0);
        faultPool_.emplace_back(va, pageAlignDown(pa));
    }
}

void
ArmLinuxPort::protFault()
{
    if (!roPageVa_) {
        Addr va = image_.nextUserVa;
        image_.nextUserVa += kPageSize;
        Perms ro;
        ro.user = true;
        ro.write = false;
        editor_.map(image_.pgd, va, allocPage(), ro);
        roPageVa_ = va;
    }
    // Hoist the deref next to the guard: both branches above leave the
    // optional engaged, and a local keeps that provable for clang-tidy's
    // unchecked-optional-access flow analysis across the calls below.
    const Addr roVa = *roPageVa_;
    inProtFaultBench_ = true;
    Mode saved = cpu_.mode();
    cpu_.setMode(Mode::Usr);
    cpu_.memTouch(roVa, arm::Access::Write);
    cpu_.setMode(saved);
    inProtFaultBench_ = false;

    // Re-protect for the next iteration (mprotect-style): table write
    // plus the required TLB maintenance.
    Perms ro;
    ro.user = true;
    ro.write = false;
    Addr pa = editor_.lookup(image_.pgd, roVa).value_or(0);
    editor_.map(image_.pgd, roVa, pageAlignDown(pa), ro);
    cpu_.tlbiVa(roVa);
}

void
ArmLinuxPort::ptSetup(unsigned pages)
{
    Perms user;
    user.user = true;
    for (unsigned i = 0; i < pages; ++i) {
        Addr va = image_.nextUserVa;
        image_.nextUserVa += kPageSize;
        // Backing comes from the slab/page cache: recycled pages whose
        // Stage-2 state is warm in steady state.
        Addr pa;
        if (slabPool_.size() < kSlabPages) {
            pa = allocPage();
            slabPool_.push_back(pa);
        } else {
            pa = slabPool_[slabIdx_++ % kSlabPages];
            kernelCompute(120); // slab alloc path
        }
        editor_.map(image_.pgd, va, pa, user);
    }
}

void
ArmLinuxPort::tlbShootdown(bool smp)
{
    // ARM broadcasts invalidations over the interconnect: no IPI, no
    // waiting on the other core (inner-shareable TLBI).
    (void)smp;
    cpu_.tlbiAll();
}

void
ArmLinuxPort::devKick(unsigned slot, Addr nbytes)
{
    cpu_.memWrite(ArmMachine::kVirtioBase + slot * 0x1000 +
                      vdev::modeldev::KICK,
                  nbytes);
}

void
ArmLinuxPort::irq(ArmCpu &cpu)
{
    std::uint32_t iar = static_cast<std::uint32_t>(
        cpu.memRead(ArmMachine::kGiccBase + arm::gicc::IAR, 4));
    IrqId irq_id = iar & 0x3FF;
    if (irq_id == arm::kSpuriousIrq)
        return;

    cpu.compute(140); // generic IRQ dispatch

    if (irq_id < arm::kNumSgis) {
        ++ipis_;
        cpu.compute(160); // scheduler_ipi
    } else if (irq_id == arm::kVirtTimerPpi) {
        ++timerIrqs_;
        // Oneshot semantics: disable until the next program.
        arm::TimerRegs off;
        cpu.writeVirtTimer(off);
        cpu.compute(450); // hrtimer expiry processing
    } else if (irq_id >= vdev::kDevSpiBase &&
               irq_id < vdev::kDevSpiBase + 8) {
        // Interrupts coalesce; read completion progress from the used
        // counter the device DMAs into memory (virtio style).
        unsigned slot = irq_id - vdev::kDevSpiBase;
        devCompletions_[slot] = cpu.memRead(
            image_.ramBase + vdev::kUsedPageOffset + slot * 8, 8);
        cpu.compute(220); // driver completion handler
    }

    cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
}

void
ArmLinuxPort::svc(ArmCpu &cpu, std::uint32_t num)
{
    (void)cpu;
    (void)num;
    // Syscall body costs are charged by the workload model.
}

bool
ArmLinuxPort::pageFault(ArmCpu &cpu, Addr va, bool write, bool user)
{
    if (!user || va >= image_.ramBase)
        return false; // kernel fault: bug

    std::optional<Addr> mapped = editor_.lookup(image_.pgd, va);

    if (mapped && write) {
        // Protection fault on a mapped page.
        cpu.compute(kSignalWork);
        ++protFaults_;
        if (inProtFaultBench_) {
            // The benchmark's SIGSEGV handler mprotects the page RW.
            Perms rw;
            rw.user = true;
            editor_.map(image_.pgd, pageAlignDown(va),
                        pageAlignDown(*mapped), rw);
            cpu.tlbiVa(va);
            return true;
        }
        return false;
    }

    // Anonymous demand fault: map a page — from the page cache when the
    // fault path designated one, else a fresh zeroed frame.
    cpu.compute(kDemandFaultKernelWork);
    Addr pa = pendingBackingPa_ ? pendingBackingPa_ : allocPage();
    pendingBackingPa_ = 0;
    Perms rw;
    rw.user = true;
    editor_.map(image_.pgd, pageAlignDown(va), pa, rw);
    return true;
}

} // namespace kvmarm::wl
