#include "workload/x86_port.hh"

#include "sim/logging.hh"
#include "vdev/model_dev.hh"
#include "vdev/qemu.hh"

namespace kvmarm::wl {

using x86::X86Cpu;
using x86::X86Machine;

namespace {
constexpr Cycles kDemandFaultKernelWork = 800;
constexpr Cycles kSignalWork = 380;
constexpr Cycles kPageZeroWork = 300;
/** Page-table write work per mapped page (x86 paging is not walked in
 *  detail by this model; see DESIGN.md's substitution notes). */
constexpr Cycles kPtWritesPerPage = 130;
} // namespace

X86LinuxPort::X86LinuxPort(X86Cpu &cpu, X86OsImage &image, unsigned index)
    : cpu_(cpu), image_(image), index_(index)
{
}

Addr
X86LinuxPort::allocPage()
{
    if (image_.nextFreePage <= image_.ramSize / 2)
        fatal("mini-linux-x86: out of page frames");
    image_.nextFreePage -= kPageSize;
    kernelCompute(kPageZeroWork);
    return image_.nextFreePage;
}

void
X86LinuxPort::boot()
{
    if (index_ == 0) {
        image_.nextFreePage = image_.ramSize;
        image_.nextUserPage = 16 * kMiB;
        cpu_.regs()[x86::Sysreg::CR3] = 0x1000;
        image_.booted = true;
    } else {
        while (!image_.booted)
            cpu_.compute(300);
    }
    cpu_.setOsVectors(this);
    cpu_.setIf(true);
}

void
X86LinuxPort::userCompute(Cycles c)
{
    bool saved = cpu_.userMode();
    cpu_.setUserMode(true);
    cpu_.compute(c);
    cpu_.setUserMode(saved);
}

void
X86LinuxPort::timerProgram(Cycles delta)
{
    // clockevents on x86: rdtsc for "now" (free), then reprogram the
    // TSC-deadline timer — a WRMSR that traps to root mode in a VM
    // (paper §2: "executing similar timer functionality by a guest OS on
    // x86 will incur additional traps to root mode"; ARM's virtual timer
    // needs none).
    std::uint64_t now = cpu_.rdtsc();
    cpu_.wrmsrTscDeadline(now + delta);
}

void
X86LinuxPort::syscallEdge()
{
    bool saved = cpu_.userMode();
    cpu_.setUserMode(true);
    cpu_.syscall(0);
    cpu_.setUserMode(saved);
}

void
X86LinuxPort::contextSwitchMmu()
{
    // switch_mm: CR3 write. Does not exit with EPT, but costs a TLB
    // flush (no PCID on this generation's common configuration).
    cpu_.writeCr3(0x1000);
}

void
X86LinuxPort::sendRescheduleIpi(unsigned target_idx)
{
    cpu_.memWrite(x86::kApicBase + x86::apic::ICR_HI,
                  std::uint64_t(target_idx) << 56, 4);
    cpu_.memWrite(x86::kApicBase + x86::apic::ICR_LO, kRescheduleVector, 4);
}

void
X86LinuxPort::idle()
{
    cpu_.hlt();
    cpu_.compute(20); // idle-exit bookkeeping + interrupt delivery point
}

void
X86LinuxPort::demandFault()
{
    // Guest-side fault handling is charged; the backing page comes from
    // the page cache in steady state (warm EPT), cold only while the
    // pool fills.
    Addr page;
    if (faultPool_.size() < kPoolPages) {
        page = image_.nextUserPage;
        image_.nextUserPage += kPageSize;
        (void)allocPage();
        faultPool_.push_back(page);
    } else {
        page = faultPool_[faultPoolIdx_++ % kPoolPages];
    }
    userCompute(30);
    kernelCompute(kDemandFaultKernelWork + kPtWritesPerPage);
    cpu_.memWrite(page, 1, 8);
}

void
X86LinuxPort::protFault()
{
    // mprotect fault + SIGSEGV + re-protect; modelled at cost level (the
    // x86 machine does not walk guest page tables in this repo).
    userCompute(30);
    kernelCompute(kSignalWork + 2 * kPtWritesPerPage);
    cpu_.writeCr3(0x1000); // TLB shootdown of the page
}

void
X86LinuxPort::ptSetup(unsigned pages)
{
    for (unsigned i = 0; i < pages; ++i) {
        Addr page;
        if (slabPool_.size() < kSlabPages) {
            page = image_.nextUserPage;
            image_.nextUserPage += kPageSize;
            (void)allocPage();
            slabPool_.push_back(page);
        } else {
            page = slabPool_[slabIdx_++ % kSlabPages];
            kernelCompute(120); // slab alloc path
        }
        kernelCompute(kPtWritesPerPage);
        cpu_.memWrite(page, 0, 8);
    }
}

void
X86LinuxPort::tlbShootdown(bool smp)
{
    cpu_.writeCr3(0x1000); // local flush
    if (!smp || !peer)
        return;
    // smp_call_function: interrupt the other core and spin until its
    // handler acknowledges — in a VM every leg of this traps.
    std::uint64_t before = peer->shootdownAcks;
    cpu_.memWrite(x86::kApicBase + x86::apic::ICR_HI,
                  std::uint64_t(peer->cpuIndex()) << 56, 4);
    cpu_.memWrite(x86::kApicBase + x86::apic::ICR_LO, kShootdownVector, 4);
    while (peer->shootdownAcks == before) {
        if (peer->offline) {
            fatal("x86 cpu%u: TLB shootdown (vector %#x) waits for cpu%u, "
                  "whose body has returned: no ack can come",
                  index_, unsigned{kShootdownVector}, peer->cpuIndex());
        }
        cpu_.compute(120);
    }
}

void
X86LinuxPort::devKick(unsigned slot, Addr nbytes)
{
    cpu_.memWrite(X86Machine::kVirtioBase + slot * 0x1000 +
                      vdev::modeldev::KICK,
                  nbytes);
}

void
X86LinuxPort::interrupt(X86Cpu &cpu, std::uint8_t vector)
{
    cpu.compute(140);
    if (vector == kRescheduleVector) {
        ++ipis_;
        cpu.compute(160);
    } else if (vector == kShootdownVector) {
        cpu.writeCr3(0x1000); // flush and acknowledge
        ++shootdownAcks;
    } else if (vector == kTimerVector) {
        ++timerIrqs_;
        cpu.compute(450);
    } else if (vector >= vdev::kDevVectorBase &&
               vector < vdev::kDevVectorBase + 8) {
        unsigned slot = vector - vdev::kDevVectorBase;
        devCompletions_[slot] =
            cpu.memRead(vdev::kUsedPageOffset + slot * 8, 8);
        cpu.compute(220);
    }
    // EOI: a plain MMIO write — and therefore a trap to the hypervisor
    // in a VM on pre-vAPIC hardware (the paper's central x86 cost).
    cpu.memWrite(x86::kApicBase + x86::apic::EOI, 0, 4);
}

void
X86LinuxPort::syscall(X86Cpu &cpu, std::uint32_t nr)
{
    (void)cpu;
    (void)nr;
}

} // namespace kvmarm::wl
