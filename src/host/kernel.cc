#include "host/kernel.hh"

#include "arm/gic.hh"
#include "sim/logging.hh"

namespace kvmarm::host {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::CtrlReg;
using arm::Mode;
using arm::Perms;

HostKernel::HostKernel(ArmMachine &machine, const Config &config)
    : Snapshottable(&machine, "host-kernel"), machine_(machine),
      config_(config), mm_(machine.ram(), &machine), timers_(machine),
      stub_(*this), vectorOwners_(machine.config().numCpus)
{
}

void
HostKernel::buildKernelTables()
{
    arm::PageTableEditor editor(
        arm::PtFormat::KernelLpae,
        [this](Addr pa) { return machine_.ram().read(pa, 8); },
        [this](Addr pa, std::uint64_t v) { machine_.ram().write(pa, v, 8); },
        [this] { return mm_.allocPage(); });

    kernelPgd_ = editor.newRoot();

    // Identity-map all of RAM with 2 MiB kernel blocks.
    Perms kernel_mem;
    kernel_mem.user = false;
    for (Addr off = 0; off < machine_.ram().size(); off += arm::kBlock2MSize) {
        Addr pa = ArmMachine::kRamBase + off;
        editor.mapBlock2M(kernelPgd_, pa, pa, kernel_mem);
    }

    // Device mappings (4 KiB device pages).
    Perms dev;
    dev.user = false;
    dev.exec = false;
    dev.device = true;
    const Addr device_pages[] = {
        ArmMachine::kGicdBase, ArmMachine::kGiccBase,
        ArmMachine::kGicvBase, ArmMachine::kGichBase,
        ArmMachine::kUartBase,
    };
    for (Addr base : device_pages)
        editor.map(kernelPgd_, base, base, dev);
    for (unsigned slot = 0; slot < 16; ++slot) {
        Addr base = ArmMachine::kVirtioBase + slot * 0x1000;
        editor.map(kernelPgd_, base, base, dev);
    }
}

void
HostKernel::initGicOnCpu(ArmCpu &cpu)
{
    if (cpu.id() == 0)
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);

    // Enable the banked SGIs and the PPIs the host uses.
    std::uint32_t bank0 = 0xFFFF | (1u << arm::kMaintenancePpi) |
                          (1u << arm::kHypTimerPpi) |
                          (1u << arm::kVirtTimerPpi) |
                          (1u << arm::kPhysTimerPpi);
    cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER, bank0);

    cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
    cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
}

void
HostKernel::boot(CpuId cpu_id)
{
    ArmCpu &cpu = machine_.cpu(cpu_id);

    if (config_.bootedInHyp) {
        // The bootloader hands over in Hyp mode; the kernel notices and
        // installs the stub so Hyp mode can be re-entered later, then
        // makes the explicit switch to kernel mode (paper §4).
        cpu.setMode(Mode::Hyp);
        cpu.setHypVectors(&stub_);
    }
    cpu.setMode(Mode::Svc);

    if (cpu_id == 0) {
        if (kernelPgd_ == 0)
            buildKernelTables();
    } else {
        // Secondary CPUs wait in the holding pen until the boot CPU has
        // built the kernel mappings.
        while (kernelPgd_ == 0)
            cpu.compute(200);
    }

    cpu.writeCp15_64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, kernelPgd_);
    cpu.writeCp15(CtrlReg::TTBCR, 0);
    cpu.writeCp15(CtrlReg::CONTEXTIDR, 0);
    cpu.writeCp15(CtrlReg::SCTLR, cpu.readCp15(CtrlReg::SCTLR) | 1);
    cpu.setOsVectors(this);

    initGicOnCpu(cpu);
    cpu.setIrqMasked(false);
}

void
HostKernel::requestIrq(IrqId irq, IrqHandler handler)
{
    if (irq >= arm::kMaxIrqs)
        fatal("HostKernel::requestIrq: bad irq %u", irq);
    handlers_[irq] = std::move(handler);
}

void
HostKernel::enableIrq(ArmCpu &cpu, IrqId irq)
{
    unsigned word = irq / 32;
    cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER + word * 4,
                 1u << (irq % 32));
    if (irq >= arm::kFirstSpi) {
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ITARGETSR + irq,
                     1u << cpu.id());
    }
}

void
HostKernel::irq(ArmCpu &cpu)
{
    std::uint32_t iar = static_cast<std::uint32_t>(
        cpu.memRead(ArmMachine::kGiccBase + arm::gicc::IAR, 4));
    IrqId irq = iar & 0x3FF;
    if (irq == arm::kSpuriousIrq)
        return;

    cpu.compute(config_.costs.irqDispatch);
    if (handlers_[irq])
        handlers_[irq](cpu, irq);
    else
        cpu.stats().inc("host.irq.unhandled");

    cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
}

void
HostKernel::svc(ArmCpu &cpu, std::uint32_t num)
{
    // Host user-space syscalls are modelled by their entry/exit cost,
    // which ArmCpu::svc already charged.
    (void)cpu;
    (void)num;
}

bool
HostKernel::pageFault(ArmCpu &cpu, Addr va, bool write, bool user)
{
    (void)cpu;
    warn("host kernel: unexpected stage-1 fault va=%#llx write=%d user=%d",
         static_cast<unsigned long long>(va), write, user);
    return false;
}

void
HostKernel::blockUntil(ArmCpu &cpu, const std::function<bool()> &pred)
{
    bool saved = cpu.irqMasked();
    cpu.setIrqMasked(false);
    cpu.waitUntil(pred);
    cpu.compute(config_.costs.wakeThread);
    cpu.setIrqMasked(saved);
}

void
HostKernel::runInUserspace(ArmCpu &cpu, FunctionRef<void()> user_work)
{
    cpu.compute(config_.costs.kernelToUser);
    Mode saved = cpu.mode();
    cpu.setMode(Mode::Usr);
    user_work();
    cpu.setMode(saved);
    cpu.compute(config_.costs.userToKernel);
}

bool
HostKernel::installHypVectors(ArmCpu &cpu, arm::HypVectors *vectors)
{
    if (!config_.bootedInHyp) {
        // Bootloader was Hyp-unaware: KVM/ARM detects this and simply
        // remains disabled (paper §4).
        return false;
    }
    stub_.pendingVectors = vectors;
    cpu.hvc(kHvcSetVectors);
    return true;
}

void
HostKernel::captureVectorOwners()
{
    for (CpuId i = 0; i < vectorOwners_.size(); ++i) {
        ArmCpu &cpu = machine_.cpu(i);
        VectorOwners &o = vectorOwners_[i];
        o.hyp = HypOwner::None;
        if (cpu.hypVectors() == &stub_)
            o.hyp = HypOwner::Stub;
        else if (cpu.hypVectors() != nullptr)
            o.hyp = HypOwner::Hypervisor;
        o.os = OsOwner::None;
        if (cpu.osVectors() == this) {
            o.os = OsOwner::Host;
        } else if (cpu.osVectors() != nullptr) {
            fatal("HostKernel: cpu%u OS vectors owned by %s — machine not "
                  "quiesced in host context", i, cpu.osVectors()->name());
        }
    }
    for (IrqId irq = 0; irq < arm::kMaxIrqs; ++irq)
        handlerMask_[irq] = static_cast<bool>(handlers_[irq]);
}

void
HostKernel::snapshotRebind()
{
    for (CpuId i = 0; i < vectorOwners_.size(); ++i) {
        ArmCpu &cpu = machine_.cpu(i);
        switch (vectorOwners_[i].hyp) {
          case HypOwner::None:
            cpu.setHypVectors(nullptr);
            break;
          case HypOwner::Stub:
            cpu.setHypVectors(&stub_);
            break;
          case HypOwner::Hypervisor:
            // The KVM layer's own rebind pass installs its vectors. Leave
            // the slot for it.
            break;
        }
        cpu.setOsVectors(vectorOwners_[i].os == OsOwner::Host ? this
                                                              : nullptr);
    }
}

void
HostKernel::snapshotVerify()
{
    for (IrqId irq = 0; irq < arm::kMaxIrqs; ++irq) {
        if (handlerMask_[irq] != static_cast<bool>(handlers_[irq]))
            fatal("HostKernel: irq %u handler %s after restore — owner "
                  "failed to re-register during rebind", irq,
                  handlerMask_[irq] ? "missing" : "unexpectedly set");
    }
    for (CpuId i = 0; i < vectorOwners_.size(); ++i) {
        ArmCpu &cpu = machine_.cpu(i);
        if (vectorOwners_[i].hyp == HypOwner::Hypervisor &&
            (cpu.hypVectors() == nullptr || cpu.hypVectors() == &stub_)) {
            fatal("HostKernel: cpu%u Hyp vectors not reinstalled by the "
                  "hypervisor layer after restore", i);
        }
    }
}

void
HostKernel::HypStub::hypTrap(ArmCpu &cpu, const arm::Hsr &hsr)
{
    if (hsr.ec == arm::ExcClass::Hvc && hsr.iss == kHvcSetVectors) {
        cpu.setHypVectors(pendingVectors);
        return;
    }
    panic("hyp-stub: unexpected trap (%s) — no runtime Hyp vectors "
          "installed", arm::excClassName(hsr.ec));
}

} // namespace kvmarm::host
