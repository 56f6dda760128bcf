#include "workload/microbench.hh"

#include <memory>

#include "core/kvm_stack.hh"

namespace kvmarm::wl {

using arm::ArmCpu;
using arm::ArmMachine;
using core::VCpu;
using core::Vm;

namespace {

/** Shared-guest-memory mailbox addresses (IPAs, VA==IPA, MMU off). */
constexpr Addr kFlagResponse = ArmMachine::kRamBase + 0x1000;

/**
 * The "custom small guest OS": enough of a kernel to take interrupts
 * through the (virtual) GIC CPU interface and run the measurement loops.
 */
class MicroGuestOs : public arm::OsVectors
{
  public:
    void
    irq(ArmCpu &cpu) override
    {
        Cycles t0 = cpu.now();
        std::uint32_t iar = static_cast<std::uint32_t>(
            cpu.memRead(ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        IrqId irq_id = iar & 0x3FF;
        if (irq_id == arm::kSpuriousIrq)
            return;
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
        lastAckEoiCycles = cpu.now() - t0;
        totalAckEoiCycles += lastAckEoiCycles;
        ++irqCount;
        // Respond to IPIs through shared guest memory only after the IPI
        // is complete (the paper measures "until the other core responds
        // and completes the IPI").
        if (irq_id < arm::kNumSgis) {
            ++ipisReceived;
            cpu.memWrite(kFlagResponse, ipisReceived, 4);
        }
    }

    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "micro-guest"; }

    /** Guest boot: enable the distributor, the SGIs, and the CPU
     *  interface — all through (trapped or virtualized) MMIO. */
    void
    boot(ArmCpu &cpu)
    {
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER, 0xFFFF);
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
        cpu.setIrqMasked(false);
    }

    std::uint64_t ipisReceived = 0;
    std::uint64_t irqCount = 0;
    Cycles lastAckEoiCycles = 0;
    Cycles totalAckEoiCycles = 0;
};

} // namespace

MicroResults
runArmMicrobench(const ArmMicroSetup &setup)
{
    core::KvmConfig kc;
    kc.useVgic = setup.useVgic;
    kc.useVtimers = setup.useVtimers;
    core::KvmStack stack({.numCpus = 2, .ramSize = 256 * kMiB, .kvm = kc});
    MicroResults results;
    const unsigned iters = setup.iterations;

    std::unique_ptr<Vm> vm;
    MicroGuestOs guest_os0;
    MicroGuestOs guest_os1;
    bool responder_ready = false;
    bool responder_done = false;

    stack.onCpu(0, [&](ArmCpu &cpu) {
        vm = stack.kvm.createVm(128 * kMiB);
        VCpu &vcpu0 = vm->addVcpu(0);
        VCpu &vcpu1 = vm->addVcpu(1);
        vcpu0.setGuestOs(&guest_os0);
        vcpu1.setGuestOs(&guest_os1);

        // In-kernel test device for "I/O Kernel".
        vm->addKernelDevice(Vm::kKernelTestDevBase, 0x1000,
                            [](bool, Addr, std::uint64_t, unsigned) {
                                return std::uint64_t{0};
                            });
        // User-space (QEMU) emulation for everything else ("I/O User").
        vm->setUserMmioHandler([](ArmCpu &c, VCpu &, core::MmioExit &exit) {
            c.compute(800); // QEMU device model work
            exit.handled = true;
            exit.data = 0;
        });

        vcpu0.run(cpu, [&](ArmCpu &c) {
            guest_os0.boot(c);

            // Warm up: map the mailbox page and settle lazy state.
            c.memWrite(kFlagResponse, 0, 4);
            c.hvc(core::hvc::kTestHypercall);

            // --- Hypercall ---
            Cycles t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.hvc(core::hvc::kTestHypercall);
            results.hypercall = (c.now() - t0) / iters;

            // --- Trap (no world switch) ---
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.hvc(core::hvc::kTrapOnly);
            results.trap = (c.now() - t0) / iters;

            // --- I/O Kernel ---
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.memWrite(Vm::kKernelTestDevBase, i, 4);
            results.ioKernel = (c.now() - t0) / iters;

            // --- I/O User ---
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.memWrite(ArmMachine::kUartBase, 'x', 4);
            results.ioUser = (c.now() - t0) / iters;

            // --- IPI round trip (needs the responder on VCPU1) ---
            while (!responder_ready)
                c.compute(200);
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i) {
                // GICD_SGIR: target list = vcpu1, SGI 5.
                c.memWrite(ArmMachine::kGicdBase + arm::gicd::SGIR,
                           (1u << 17) | 5);
                while (c.memRead(kFlagResponse, 4) < i + 1)
                    c.compute(40);
            }
            results.ipi = (c.now() - t0) / iters;

            // --- EOI+ACK (measured inside the IRQ handler) ---
            guest_os0.totalAckEoiCycles = 0;
            guest_os0.irqCount = 0;
            for (unsigned i = 0; i < iters; ++i) {
                // Self-IPI delivers a virtual interrupt whose handler
                // times its ACK+EOI sequence; the SGIR trap itself forces
                // the world switch that programs the list register.
                c.memWrite(ArmMachine::kGicdBase + arm::gicd::SGIR,
                           (2u << 24) | 7);
                while (guest_os0.irqCount < i + 1)
                    c.compute(40);
            }
            results.eoiAck = guest_os0.irqCount
                                 ? guest_os0.totalAckEoiCycles /
                                       guest_os0.irqCount
                                 : 0;

            responder_done = true;
        });
    });

    stack.onCpu(1, [&](ArmCpu &cpu) {
        // Spin (stay schedulable) until cpu0 has created the VM.
        while (!vm || vm->vcpus().size() < 2)
            cpu.compute(500);
        VCpu &vcpu1 = *vm->vcpus()[1];

        vcpu1.run(cpu, [&](ArmCpu &c) {
            guest_os1.boot(c);
            responder_ready = true;
            // Actively spin inside the VM (paper: "both are actively
            // running inside the VM") responding to IPIs via the handler.
            while (!responder_done)
                c.compute(120);
        });
    });

    stack.machine.run();
    return results;
}

} // namespace kvmarm::wl
