#include "x86/cpu.hh"

#include "sim/logging.hh"
#include "x86/apic.hh"
#include "x86/machine.hh"

namespace kvmarm::x86 {

X86Cpu::X86Cpu(CpuId id, X86Machine &machine)
    : CpuBase(id, machine), machine_(machine)
{
}

std::uint64_t
X86Cpu::accessMem(Addr addr, bool write, std::uint64_t value, unsigned len)
{
    const bool guest = nonRoot_;
    Addr pa = addr;
    if (guest) {
        // APIC accesses never hit the EPT: this hardware generation has
        // no virtual APIC, every access exits (paper §2).
        if (pageAlignDown(addr) == pageAlignDown(kApicBase)) {
            ExitInfo info;
            info.reason = ExitReason::ApicAccess;
            info.gpa = addr;
            info.apicOffset = addr - kApicBase;
            info.isWrite = write;
            info.len = len;
            info.value = value;
            vmexit(info);
            if (mmioPending_) {
                mmioPending_ = false;
                return mmioValue_;
            }
            return 0;
        }
        while (!vmcs_.ept || !vmcs_.ept->translate(addr, pa)) {
            ExitInfo info;
            info.reason = ExitReason::EptViolation;
            info.gpa = addr;
            info.isWrite = write;
            info.len = len;
            info.value = value;
            vmexit(info);
            if (mmioPending_) {
                mmioPending_ = false;
                return mmioValue_;
            }
            // KVM mapped the page; retry the translation.
        }
        addCycles(machine_.cost().eptWalk / 8); // amortized 2-D walk cost
    }
    const std::optional<Bus::Target> t = machine_.bus().decode(pa, write);
    if (!t && guest) {
        panic("x86 cpu%u: guest access to bad hpa %#llx", id_,
              static_cast<unsigned long long>(pa));
    }
    if (!t) {
        panic("x86 cpu%u: access to unmapped pa %#llx", id_,
              static_cast<unsigned long long>(pa));
    }
    const std::uint64_t v = t->access(id_, pa, write, value, len);
    addCycles(t->latency);
    return v;
}

std::uint64_t
X86Cpu::memRead(Addr addr, unsigned len)
{
    return splitAtPages(addr, 0, len,
                        [this](Addr a, std::uint64_t, unsigned n) {
                            return accessMem(a, false, 0, n);
                        });
}

void
X86Cpu::memWrite(Addr addr, std::uint64_t value, unsigned len)
{
    splitAtPages(addr, value, len,
                 [this](Addr a, std::uint64_t v, unsigned n) {
                     return accessMem(a, true, v, n);
                 });
}

std::uint64_t
X86Cpu::rdtsc()
{
    addCycles(machine_.cost().rdtsc);
    return now() - (nonRoot_ ? vmcs_.tscOffset : 0);
}

void
X86Cpu::vmcall(std::uint32_t nr)
{
    ExitInfo info;
    info.reason = ExitReason::Vmcall;
    info.vmcallNr = nr;
    if (!nonRoot_) {
        // From root mode this is how the KVM run loop is entered.
        if (!vmxHandler_)
            panic("x86 cpu%u: vmcall with no VMX handler", id_);
        vmxHandler_->vmexit(*this, info);
        return;
    }
    vmexit(info);
}

std::uint64_t
X86Cpu::portIo(std::uint16_t port, bool write, std::uint64_t value)
{
    if (nonRoot_) {
        ExitInfo info;
        info.reason = ExitReason::IoInstruction;
        info.port = port;
        info.isWrite = write;
        info.value = value;
        vmexit(info);
        if (mmioPending_) {
            mmioPending_ = false;
            return mmioValue_;
        }
        return 0;
    }
    // Native port I/O: modelled as a fixed-latency device access.
    addCycles(machine_.cost().uartLatency);
    return 0;
}

void
X86Cpu::hlt()
{
    if (nonRoot_) {
        ExitInfo info;
        info.reason = ExitReason::Hlt;
        vmexit(info);
        return;
    }
    stats_.inc("hlt.native");
    std::uint64_t before = interruptsTaken_;
    waitUntil([this, before] {
        return interruptPending() || interruptsTaken_ > before;
    });
}

void
X86Cpu::wrmsrTscDeadline(std::uint64_t deadline)
{
    if (nonRoot_) {
        ExitInfo info;
        info.reason = ExitReason::MsrWrite;
        info.value = deadline;
        vmexit(info);
        return;
    }
    addCycles(40); // wrmsr
    machine_.apic().programTimer(id_, deadline);
}

void
X86Cpu::syscall(std::uint32_t nr)
{
    if (!userMode_)
        panic("x86 cpu%u: syscall from kernel mode", id_);
    if (!osVectors_)
        panic("x86 cpu%u: syscall with no OS vectors", id_);
    userMode_ = false;
    bool saved_if = ifFlag_;
    addCycles(machine_.cost().kernelEntry);
    osVectors_->syscall(*this, nr);
    addCycles(machine_.cost().kernelEret);
    userMode_ = true;
    ifFlag_ = saved_if;
}

void
X86Cpu::writeCr3(std::uint64_t value)
{
    regs_[Sysreg::CR3] = value;
    addCycles(machine_.cost().tlbFlush);
}

void
X86Cpu::vmentry()
{
    const X86CostModel &cm = machine_.cost();
    // Hardware loads the entire guest state area with one instruction
    // (paper §2) — no software register motion.
    vmcs_.hostRegs = regs_;
    regs_ = vmcs_.guestRegs;
    hostOs_ = osVectors_;
    osVectors_ = vmcs_.guestOs;
    hostUserMode_ = userMode_;
    hostIf_ = ifFlag_;
    userMode_ = vmcs_.guestUserMode;
    ifFlag_ = vmcs_.guestIf;
    nonRoot_ = true;
    setIrqPin(kPinInject, injectVector_ != 0);
    addCycles(cm.vmentryHw);
}

void
X86Cpu::vmexit(const ExitInfo &info)
{
    if (!vmxHandler_)
        panic("x86 cpu%u: vmexit with no handler", id_);
    stats_.inc(kVmexitStats[static_cast<std::size_t>(info.reason)]);
    const X86CostModel &cm = machine_.cost();

    // Hardware saves the guest state and loads host state.
    vmcs_.guestRegs = regs_;
    regs_ = vmcs_.hostRegs;
    vmcs_.guestUserMode = userMode_;
    vmcs_.guestIf = ifFlag_;
    nonRoot_ = false;
    setIrqPin(kPinInject, false);
    osVectors_ = hostOs_;
    userMode_ = hostUserMode_;
    ifFlag_ = hostIf_;
    addCycles(cm.vmexitHw);

    vmxHandler_->vmexit(*this, info);

    if (stopVmx_) {
        // KVM decided to return to the host (KVM_RUN completes).
        stopVmx_ = false;
        return;
    }
    vmentry();
}

void
X86Cpu::completeMmio(std::uint64_t value)
{
    mmioPending_ = true;
    mmioValue_ = value;
}

bool
X86Cpu::interruptPending() const
{
    if (irqPin(kPinApic)) {
        if (nonRoot_)
            return true; // external-interrupt exiting, regardless of IF
        if (ifFlag_)
            return true;
    }
    return irqPin(kPinInject) && ifFlag_;
}

void
X86Cpu::takeInterrupt(std::uint8_t vector)
{
    ++interruptsTaken_;
    bool saved_if = ifFlag_;
    bool saved_user = userMode_;
    ifFlag_ = false;
    userMode_ = false;
    addCycles(machine_.cost().kernelEntry);
    osVectors_->interrupt(*this, vector);
    addCycles(machine_.cost().kernelEret);
    ifFlag_ = saved_if;
    userMode_ = saved_user;
}

void
X86Cpu::serviceInterrupts()
{
    if (inIrqService_)
        return;
    inIrqService_ = true;
    Cycles progress_mark = now_;
    for (unsigned guard = 0; guard < 100000; ++guard) {
        if ((guard & 0xFF) == 0xFF) {
            if (now_ == progress_mark)
                break;
            progress_mark = now_;
        }
        bool phys = irqPin(kPinApic);
        if (phys && nonRoot_) {
            // External interrupts always exit to root mode while a VM
            // runs; the host services them with interrupts re-enabled.
            ExitInfo info;
            info.reason = ExitReason::ExternalInterrupt;
            inIrqService_ = false;
            vmexit(info);
            inIrqService_ = true;
            continue;
        }
        if (phys && !nonRoot_ && ifFlag_ && osVectors_) {
            std::uint8_t vec = machine_.apic().acceptVector(id_);
            takeInterrupt(vec);
            continue;
        }
        if (irqPin(kPinInject) && ifFlag_ && osVectors_) {
            std::uint8_t vec = injectVector_;
            setInjectVector(0);
            stats_.inc("irq.injected");
            takeInterrupt(vec);
            continue;
        }
        inIrqService_ = false;
        return;
    }
    inIrqService_ = false;
    panic("x86 cpu%u: interrupt service livelock", id_);
}

} // namespace kvmarm::x86
