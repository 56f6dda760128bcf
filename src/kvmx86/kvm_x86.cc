#include "kvmx86/kvm_x86.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace kvmarm::kvmx86 {

using x86::ExitInfo;
using x86::ExitReason;
using x86::X86Cpu;

VCpuX86::VCpuX86(VmX86 &vm, unsigned index, CpuId phys_cpu)
    : vm_(vm), index_(index), physCpu_(phys_cpu)
{
}

void
VCpuX86::run(X86Cpu &cpu,
             const std::function<void(X86Cpu &)> &guest_main)
{
    if (cpu.id() != physCpu_)
        panic("VCpuX86::run on wrong cpu");
    KvmX86 &kvm = vm_.kvm();
    kvm.queueEnter(cpu.id(), this);
    Cycles entered = cpu.now();
    cpu.vmcall(vmcallnr::kRunVcpu);
    guest_main(cpu);
    cpu.vmcall(vmcallnr::kStopVcpu);
    stats.inc("residency.cycles", cpu.now() - entered);
}

VmX86::VmX86(KvmX86 &kvm, Addr guest_ram_size)
    : kvm_(kvm), ramSize_(guest_ram_size),
      pages_(pageAlignUp(guest_ram_size) >> kPageShift)
{
}

VCpuX86 &
VmX86::addVcpu(CpuId phys_cpu)
{
    auto vcpu = std::make_unique<VCpuX86>(
        *this, static_cast<unsigned>(vcpus_.size()), phys_cpu);
    vcpu->tscOffset = kvm_.machine().cpuBase(phys_cpu).now();
    vcpus_.push_back(std::move(vcpu));
    return *vcpus_.back();
}

bool
VmX86::handleEptFault(Addr gpa)
{
    if (gpa >= ramSize_)
        return false;
    std::optional<Addr> &slot = pages_.at(gpa >> kPageShift);
    if (!slot) {
        slot = kvm_.host().mm().getUserPages();
        ++mappedPages_;
    }
    return true;
}

bool
VmX86::translate(Addr gpa, Addr &hpa)
{
    // Every non-APIC guest access lands here, MMIO included.
    if (gpa >= ramSize_)
        return false;
    const std::optional<Addr> *slot = pages_.find(gpa >> kPageShift);
    if (!slot || !*slot)
        return false;
    hpa = **slot | (gpa & (kPageSize - 1));
    return true;
}

void
VmX86::irqLine(X86Cpu &current_cpu, std::uint8_t vector,
               unsigned target_vcpu)
{
    if (target_vcpu >= vcpus_.size())
        return;
    kvm_.deliverVirq(current_cpu, *vcpus_[target_vcpu], vector);
}

KvmX86::KvmX86(X86Host &host)
    : host_(host), running_(host.machine().numCpus(), nullptr),
      pendingEnter_(host.machine().numCpus(), nullptr)
{
}

void
KvmX86::initCpu(X86Cpu &cpu)
{
    cpu.setVmxHandler(this);
    if (!vectorsRegistered_) {
        vectorsRegistered_ = true;
        host_.requestVector(kKickVector, [this](X86Cpu &c) {
            c.stats().inc("kvmx86.kick");
            c.compute(machine().cost().kvmKickCost);
        });
    }
}

std::unique_ptr<VmX86>
KvmX86::createVm(Addr guest_ram_size)
{
    return std::make_unique<VmX86>(*this, guest_ram_size);
}

void
KvmX86::enterVm(X86Cpu &cpu, VCpuX86 &vcpu)
{
    running_.at(cpu.id()) = &vcpu;
    x86::Vmcs &vmcs = cpu.vmcs();
    vmcs.guestRegs = vcpu.regs;
    vmcs.guestUserMode = vcpu.guestUserMode;
    vmcs.guestIf = vcpu.guestIf;
    vmcs.ept = &vcpu.vm();
    vmcs.guestOs = vcpu.guestOs;
    vmcs.tscOffset = vcpu.tscOffset;
    cpu.setInjectVector(0);
    injectPending(cpu, vcpu);
    cpu.vmentry();
}

void
KvmX86::saveVcpu(X86Cpu &cpu, VCpuX86 &vcpu)
{
    x86::Vmcs &vmcs = cpu.vmcs();
    vcpu.regs = vmcs.guestRegs;
    vcpu.guestUserMode = vmcs.guestUserMode;
    vcpu.guestIf = vmcs.guestIf;
    if (cpu.injectVector()) {
        // An injected-but-not-yet-taken vector returns to the IRR.
        vcpu.apic.unaccept(cpu.injectVector());
        cpu.setInjectVector(0);
    }
}

void
KvmX86::injectPending(X86Cpu &cpu, VCpuX86 &vcpu)
{
    // One injection at a time: the VMCS field holds a single vector.
    std::uint8_t vec = cpu.injectVector() ? 0 : vcpu.apic.accept();
    if (!vec)
        return;
    cpu.setInjectVector(vec);
    // Hardware event injection on vmentry (paper §2: interrupt delivery
    // itself is cheap; it is EOI that must trap without a virtual APIC).
    cpu.compute(machine().cost().eventInject);
}

void
KvmX86::deliverVirq(X86Cpu &current_cpu, VCpuX86 &target,
                    std::uint8_t vector)
{
    const x86::X86CostModel &cm = machine().cost();
    current_cpu.compute(2 * cm.atomicOp); // irq routing lock
    target.apic.pend(vector);

    if (target.blocked) {
        // Waking a halted VCPU is a real reschedule IPI to its physical
        // CPU plus the scheduler wakeup there.
        target.kicked = true;
        machine().cpuBase(target.physCpu())
            .kickAt(current_cpu.now() + cm.ipiWire + 800);
        return;
    }
    VCpuX86 *resident = running_.at(target.physCpu());
    if (resident == &target && target.physCpu() != current_cpu.id()) {
        // Physical reschedule IPI to force the target out of guest mode;
        // costed as a native ICR write plus the wire.
        machine().apic().write(current_cpu.id(), x86::apic::ICR_HI,
                               std::uint64_t(target.physCpu()) << 56, 4);
        current_cpu.memWrite(x86::kApicBase + x86::apic::ICR_LO,
                             kKickVector, 4);
    }
    if (resident == &target && target.physCpu() == current_cpu.id())
        injectPending(current_cpu, target);
}

void
KvmX86::rootVmcall(X86Cpu &cpu, const ExitInfo &info)
{
    if (info.reason != ExitReason::Vmcall)
        panic("kvm-x86: unexpected root-mode exit %s",
              exitReasonName(info.reason));
    if (info.vmcallNr == vmcallnr::kRunVcpu) {
        VCpuX86 *vcpu = pendingEnter_.at(cpu.id());
        if (!vcpu)
            panic("kvm-x86: run with no queued vcpu");
        pendingEnter_.at(cpu.id()) = nullptr;
        enterVm(cpu, *vcpu);
        return;
    }
    panic("kvm-x86: unknown host vmcall %#x", info.vmcallNr);
}

void
KvmX86::handleEpt(X86Cpu &cpu, VCpuX86 &vcpu, const ExitInfo &info)
{
    const x86::X86CostModel &cm = machine().cost();
    if (vcpu.vm().handleEptFault(info.gpa)) {
        vcpu.stats.inc("fault.ept");
        cpu.compute(host::Mm::kGetUserPagesCost);
        return;
    }
    // MMIO: x86 KVM must decode the instruction in software (paper §5.3).
    vcpu.stats.inc("mmio");
    cpu.compute(cm.mmioDecode + cm.mmioDispatch);

    Addr off = 0;
    if (auto *h = vcpu.vm().kernelDevices().find(info.gpa, off)) {
        vcpu.stats.inc("mmio.kernel");
        std::uint64_t result = (*h)(info.isWrite, off, info.value, info.len);
        cpu.completeMmio(result);
        return;
    }
    X86MmioExit exit;
    exit.gpa = info.gpa;
    exit.isWrite = info.isWrite;
    exit.len = info.len;
    exit.data = info.value;
    userMmioExit(cpu, vcpu, exit);
}

void
KvmX86::userMmioExit(X86Cpu &cpu, VCpuX86 &vcpu, X86MmioExit &exit)
{
    vcpu.stats.inc("mmio.user");
    auto &handler = vcpu.vm().userMmioHandler();
    if (!handler) {
        warn("kvm-x86: MMIO exit with no user-space emulator");
        cpu.completeMmio(0);
        return;
    }
    host_.runInUserspace(cpu, [&] { handler(cpu, vcpu, exit); });
    if (!exit.handled)
        warn("qemu: unhandled %s %s at %#llx",
             exit.isPortIo ? "port" : "MMIO", exit.isWrite ? "write" : "read",
             static_cast<unsigned long long>(exit.isPortIo ? exit.port
                                                            : exit.gpa));
    cpu.completeMmio(exit.data);
}

void
KvmX86::handleApicAccess(X86Cpu &cpu, VCpuX86 &vcpu, const ExitInfo &info)
{
    const x86::X86CostModel &cm = machine().cost();
    vcpu.stats.inc("apic.access");

    if (info.isWrite && info.apicOffset == x86::apic::EOI) {
        // Fast path: no decode needed, the EOI value is ignored. Still a
        // full trap to root mode — Table 3's EOI+ACK on x86.
        cpu.compute(cm.apicEmulate + cm.atomicOp);
        vcpu.apic.eoi();
        injectPending(cpu, vcpu);
        cpu.completeMmio(0);
        return;
    }

    // All other APIC registers go through the instruction emulator.
    cpu.compute(cm.mmioDecode + cm.apicEmulate);
    if (!info.isWrite) {
        // TIMER_CUR counts down to the deadline while the timer is armed,
        // as LocalApic::read has it.
        const Cycles now = cpu.now();
        cpu.completeMmio(
            info.apicOffset != x86::apic::TIMER_CUR
                ? vcpu.apic.read(info.apicOffset, vcpu.index())
            : vcpu.apicTimer && vcpu.apicTimerDeadline > now
                ? vcpu.apicTimerDeadline - now
                : 0);
        return;
    }
    if (info.apicOffset == x86::apic::ICR_LO) {
        // Virtual IPI: route to the destination VCPUs under the
        // emulation lock (paper §6's x86 analogue).
        cpu.compute(2 * cm.atomicOp);
        auto &vcpus = vcpu.vm().vcpus();
        x86::ApicState::Ipi ipi = vcpu.apic.decodeIcr(
            info.value, vcpu.index(), static_cast<unsigned>(vcpus.size()));
        for (std::uint64_t t = ipi.targets; t; t &= t - 1)
            deliverVirq(cpu, *vcpus[std::countr_zero(t)], ipi.vector);
    } else if (info.apicOffset == x86::apic::TIMER_INIT) {
        // An initial count of 0 stops the timer.
        if (info.value)
            armGuestTimer(vcpu, cpu.now() + info.value);
        else
            cancelGuestTimer(vcpu);
    } else if (vcpu.apic.write(info.apicOffset, info.value)) {
        cancelGuestTimer(vcpu);
    }
    cpu.completeMmio(0);
}

void
KvmX86::armGuestTimer(VCpuX86 &vcpu, Cycles deadline)
{
    // In-kernel APIC timer emulation via a host software timer.
    cancelGuestTimer(vcpu);
    CpuId phys = vcpu.physCpu();
    vcpu.apicTimerDeadline = deadline;
    vcpu.apicTimer = host_.timers().start(phys, deadline, [this, phys, &vcpu] {
        vcpu.apicTimer = 0;
        deliverVirq(machine().cpu(phys), vcpu, vcpu.apic.timerVector());
    });
}

void
KvmX86::cancelGuestTimer(VCpuX86 &vcpu)
{
    if (vcpu.apicTimer) {
        host_.timers().cancel(vcpu.apicTimer);
        vcpu.apicTimer = 0;
    }
}

void
KvmX86::handleIo(X86Cpu &cpu, VCpuX86 &vcpu, const ExitInfo &info)
{
    // Port I/O exits carry full decode information in the exit
    // qualification (paper §3.4) — no software decode, straight to QEMU.
    X86MmioExit exit;
    exit.isPortIo = true;
    exit.port = info.port;
    exit.isWrite = info.isWrite;
    exit.data = info.value;
    userMmioExit(cpu, vcpu, exit);
}

void
KvmX86::handleHlt(X86Cpu &cpu, VCpuX86 &vcpu)
{
    vcpu.stats.inc("emul.hlt");
    vcpu.blocked = true;
    host_.blockUntil(cpu, [&] {
        return vcpu.kicked || vcpu.stopRequested || vcpu.apic.anyPending();
    });
    vcpu.blocked = false;
    vcpu.kicked = false;
}

void
KvmX86::vmexit(X86Cpu &cpu, const ExitInfo &info)
{
    VCpuX86 *vcpu = running_.at(cpu.id());
    if (!vcpu) {
        rootVmcall(cpu, info);
        return;
    }

    if (info.reason == ExitReason::Vmcall &&
        info.vmcallNr == vmcallnr::kTrapOnly) {
        // Table 3 "Trap": the bare hardware transition cost.
        vcpu->stats.inc("exit.traponly");
        return;
    }

    const x86::X86CostModel &cm = machine().cost();
    vcpu->stats.inc(kExitStats[static_cast<std::size_t>(info.reason)]);
    cpu.setIf(true); // host runs with interrupts enabled
    cpu.compute(cm.exitDispatch);

    switch (info.reason) {
      case ExitReason::Vmcall:
        if (info.vmcallNr == vmcallnr::kStopVcpu) {
            saveVcpu(cpu, *vcpu);
            running_.at(cpu.id()) = nullptr;
            cpu.setStopVmx(true);
            return;
        }
        // kTestHypercall and unknown guest hypercalls: no work.
        break;
      case ExitReason::EptViolation:
        handleEpt(cpu, *vcpu, info);
        break;
      case ExitReason::ApicAccess:
        handleApicAccess(cpu, *vcpu, info);
        break;
      case ExitReason::IoInstruction:
        handleIo(cpu, *vcpu, info);
        break;
      case ExitReason::MsrWrite:
        // TSC-deadline write: in-kernel APIC timer emulation, no decode
        // (the value arrives in registers).
        cpu.compute(cm.apicEmulate);
        vcpu->stats.inc("emul.tscdeadline");
        armGuestTimer(*vcpu, std::max<Cycles>(info.value + vcpu->tscOffset,
                                              cpu.now() + 1));
        break;
      case ExitReason::Hlt:
        handleHlt(cpu, *vcpu);
        break;
      case ExitReason::ExternalInterrupt:
        // Serviced by the host the moment interrupts were re-enabled.
        break;
    }

    injectPending(cpu, *vcpu);
    // The hardware vmentry is performed by X86Cpu::vmexit's epilogue.
}

} // namespace kvmarm::kvmx86
