/**
 * @file
 * What differs between the ARM and x86 halves of the evaluation (paper
 * §5), described once per architecture. The Table 3 loops
 * (workload/microbench.cc) and the native and virtualized runners
 * (workload/harness.cc) are each one template over these descriptions:
 * the stack, port and QEMU types, how a native device raises its
 * interrupt, and the Table 3 guest's operations and interrupt handler.
 */

#ifndef KVMARM_WORKLOAD_ARCH_HH
#define KVMARM_WORKLOAD_ARCH_HH

#include "core/kvm_stack.hh"
#include "kvmx86/kvm_x86_stack.hh"
#include "vdev/qemu.hh"
#include "workload/arm_port.hh"
#include "workload/harness.hh"
#include "workload/x86_port.hh"

namespace kvmarm::wl {

/** Offset from guest RAM of the Table 3 IPI responder's mailbox. */
inline constexpr Addr kMicroFlagOffset = 0x1000;

/** Interrupt bookkeeping of the Table 3 guest kernel. */
struct MicroTally
{
    std::uint64_t ipisReceived = 0;
    std::uint64_t irqCount = 0;
    Cycles totalAckEoiCycles = 0;

    /** Count an interrupt whose handler began at @p t0 and has just
     *  completed its ACK/EOI sequence; answer an IPI through the
     *  mailbox at @p flag only now, after the IPI is complete (the paper
     *  measures "until the other core responds and completes the IPI"). */
    template <class Cpu>
    void
    handled(Cpu &cpu, Cycles t0, bool ipi, Addr flag)
    {
        totalAckEoiCycles += cpu.now() - t0;
        ++irqCount;
        if (ipi) {
            ++ipisReceived;
            cpu.memWrite(flag, ipisReceived, 4);
        }
    }
};

/** KVM/ARM on the Arndale model, with or without VGIC/vtimers. */
struct ArmArch
{
    using Cpu = arm::ArmCpu;
    using Machine = arm::ArmMachine;
    using Stack = core::KvmStack;
    using Vm = core::Vm;
    using Port = ArmLinuxPort;
    using OsImage = ArmOsImage;
    using Qemu = vdev::QemuArm;

    static constexpr Addr kRamBase = Machine::kRamBase;
    /** Table 3 "I/O User" target: the UART QEMU emulates. */
    static constexpr Addr kUserIoBase = Machine::kUartBase;

    static Machine::Config machineConfig(Platform, unsigned cpus, Addr ram)
    {
        Machine::Config mc;
        mc.numCpus = cpus;
        mc.ramSize = ram;
        return mc;
    }

    static Stack::Config stackConfig(Platform p, unsigned cpus, Addr ram)
    {
        bool vgic = p == Platform::ArmVgic;
        return {.numCpus = cpus,
                .ramSize = ram,
                .kvm = {.useVgic = vgic, .useVtimers = vgic}};
    }

    static void raiseDevIrq(Machine &machine, unsigned slot, Cycles when)
    {
        machine.gicd().raiseSpi(vdev::kDevSpiBase + slot, when);
    }

    static void peer(Port &, Port &) {}

    static void hypercall(Cpu &c) { c.hvc(core::hvc::kTestHypercall); }
    static void trapOnly(Cpu &c) { c.hvc(core::hvc::kTrapOnly); }

    /** GICD_SGIR: target list = vcpu1, SGI 5. */
    static void ipi(Cpu &c)
    {
        c.memWrite(Machine::kGicdBase + arm::gicd::SGIR, (1u << 17) | 5);
    }

    /** Self-SGI 7: the SGIR trap itself forces the world switch that
     *  programs the list register. */
    static void selfIpi(Cpu &c)
    {
        c.memWrite(Machine::kGicdBase + arm::gicd::SGIR, (2u << 24) | 7);
    }

    /** The "custom small guest OS" of paper §5.1: takes interrupts
     *  through the (virtual) GIC CPU interface. */
    class MicroGuest : public arm::OsVectors, public MicroTally
    {
      public:
        void
        irq(Cpu &cpu) override
        {
            Cycles t0 = cpu.now();
            auto iar = static_cast<std::uint32_t>(
                cpu.memRead(Machine::kGiccBase + arm::gicc::IAR, 4));
            IrqId irq_id = iar & 0x3FF;
            if (irq_id == arm::kSpuriousIrq)
                return;
            cpu.memWrite(Machine::kGiccBase + arm::gicc::EOIR, iar);
            handled(cpu, t0, irq_id < arm::kNumSgis,
                    kRamBase + kMicroFlagOffset);
        }

        void svc(Cpu &, std::uint32_t) override {}
        bool pageFault(Cpu &, Addr, bool, bool) override { return false; }
        const char *name() const override { return "micro-guest"; }

        /** Enable the distributor, the SGIs and the CPU interface, all
         *  through (trapped or virtualized) MMIO. */
        void
        boot(Cpu &cpu)
        {
            cpu.memWrite(Machine::kGicdBase + arm::gicd::CTLR, 1);
            cpu.memWrite(Machine::kGicdBase + arm::gicd::ISENABLER, 0xFFFF);
            cpu.memWrite(Machine::kGiccBase + arm::gicc::PMR, 0xFF);
            cpu.memWrite(Machine::kGiccBase + arm::gicc::CTLR, 1);
            cpu.setIrqMasked(false);
        }
    };
};

/** KVM x86 on the laptop or server calibration. */
struct X86Arch
{
    using Cpu = x86::X86Cpu;
    using Machine = x86::X86Machine;
    using Stack = kvmx86::KvmX86Stack;
    using Vm = kvmx86::VmX86;
    using Port = X86LinuxPort;
    using OsImage = X86OsImage;
    using Qemu = vdev::QemuX86;

    static constexpr Addr kRamBase = Machine::kRamBase;
    static constexpr Addr kUserIoBase = Machine::kUartMmioBase;
    static constexpr std::uint8_t kIpiVector = 0xD1;

    static Machine::Config machineConfig(Platform p, unsigned cpus, Addr ram)
    {
        return {.numCpus = cpus,
                .ramSize = ram,
                .platform = p == Platform::X86Laptop
                                ? x86::X86Platform::Laptop
                                : x86::X86Platform::Server};
    }

    static Stack::Config stackConfig(Platform p, unsigned cpus, Addr ram)
    {
        return machineConfig(p, cpus, ram);
    }

    static void raiseDevIrq(Machine &machine, unsigned slot, Cycles when)
    {
        machine.apic().postVector(0, vdev::kDevVectorBase + slot, when);
    }

    /** SMP TLB shootdowns signal the other CPU's port directly. */
    static void peer(Port &a, Port &b)
    {
        a.peer = &b;
        b.peer = &a;
    }

    static void hypercall(Cpu &c)
    {
        c.vmcall(kvmx86::vmcallnr::kTestHypercall);
    }
    static void trapOnly(Cpu &c) { c.vmcall(kvmx86::vmcallnr::kTrapOnly); }

    /** ICR_HI selects VCPU1, ICR_LO sends: both trap and are emulated by
     *  the in-kernel APIC. */
    static void ipi(Cpu &c)
    {
        c.memWrite(x86::kApicBase + x86::apic::ICR_HI, std::uint64_t(1) << 56,
                   4);
        c.memWrite(x86::kApicBase + x86::apic::ICR_LO, kIpiVector, 4);
    }

    /** Self-IPI (shorthand 01). */
    static void selfIpi(Cpu &c)
    {
        c.memWrite(x86::kApicBase + x86::apic::ICR_LO, (1u << 18) | 0xC0, 4);
    }

    /** The Table 3 guest kernel. x86 has no explicit ACK, so the EOI+ACK
     *  row measures only the EOI here. */
    class MicroGuest : public x86::X86OsVectors, public MicroTally
    {
      public:
        void
        interrupt(Cpu &cpu, std::uint8_t vector) override
        {
            Cycles t0 = cpu.now();
            cpu.memWrite(x86::kApicBase + x86::apic::EOI, 0, 4);
            handled(cpu, t0, vector == kIpiVector,
                    kRamBase + kMicroFlagOffset);
        }

        void syscall(Cpu &, std::uint32_t) override {}
        const char *name() const override { return "micro-guest-x86"; }

        void boot(Cpu &cpu) { cpu.setIf(true); }
    };
};

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_ARCH_HH
