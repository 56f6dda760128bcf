#include "workload/microbench.hh"

#include <memory>

#include "workload/arch.hh"
#include "workload/microbench_x86.hh"

namespace kvmarm::wl {

namespace {

/** The Table 3 measurement loops on a fresh 2-CPU @p Arch stack: VCPU0
 *  times each operation, VCPU1 spins inside the VM answering IPIs. */
template <class Arch>
MicroResults
runTable3(const typename Arch::Stack::Config &config, unsigned iters)
{
    using Cpu = typename Arch::Cpu;
    constexpr Addr kFlagResponse = Arch::kRamBase + kMicroFlagOffset;

    typename Arch::Stack stack(config);
    MicroResults results;
    std::unique_ptr<typename Arch::Vm> vm;
    typename Arch::MicroGuest guest0;
    typename Arch::MicroGuest guest1;
    bool responder_ready = false;
    bool responder_done = false;

    stack.onCpu(0, [&](Cpu &cpu) {
        vm = stack.kvm.createVm(128 * kMiB);
        auto &vcpu0 = vm->addVcpu(0);
        auto &vcpu1 = vm->addVcpu(1);
        vcpu0.setGuestOs(&guest0);
        vcpu1.setGuestOs(&guest1);

        // In-kernel test device for "I/O Kernel".
        vm->addKernelDevice(Arch::Vm::kKernelTestDevBase, 0x1000,
                            [](bool, Addr, std::uint64_t, unsigned) {
                                return std::uint64_t{0};
                            });
        // User-space (QEMU) emulation for everything else ("I/O User").
        vm->setUserMmioHandler([](Cpu &c, auto &, auto &exit) {
            c.compute(800); // QEMU device model work
            exit.handled = true;
            exit.data = 0;
        });

        vcpu0.run(cpu, [&](Cpu &c) {
            guest0.boot(c);

            // Warm up: map the mailbox page and settle lazy state.
            c.memWrite(kFlagResponse, 0, 4);
            Arch::hypercall(c);

            // --- Hypercall ---
            Cycles t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                Arch::hypercall(c);
            results.hypercall = (c.now() - t0) / iters;

            // --- Trap (no world switch) ---
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                Arch::trapOnly(c);
            results.trap = (c.now() - t0) / iters;

            // --- I/O Kernel ---
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.memWrite(Arch::Vm::kKernelTestDevBase, i, 4);
            results.ioKernel = (c.now() - t0) / iters;

            // --- I/O User ---
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.memWrite(Arch::kUserIoBase, 'x', 4);
            results.ioUser = (c.now() - t0) / iters;

            // --- IPI round trip (needs the responder on VCPU1) ---
            while (!responder_ready)
                c.compute(200);
            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i) {
                Arch::ipi(c);
                while (c.memRead(kFlagResponse, 4) < i + 1)
                    c.compute(40);
            }
            results.ipi = (c.now() - t0) / iters;

            // --- EOI+ACK (measured inside the IRQ handler) ---
            guest0.totalAckEoiCycles = 0;
            guest0.irqCount = 0;
            for (unsigned i = 0; i < iters; ++i) {
                // A self-IPI delivers a virtual interrupt whose handler
                // times its ACK+EOI sequence.
                Arch::selfIpi(c);
                while (guest0.irqCount < i + 1)
                    c.compute(40);
            }
            results.eoiAck = guest0.irqCount ? guest0.totalAckEoiCycles /
                                                   guest0.irqCount
                                             : 0;

            responder_done = true;
        });
    });

    stack.onCpu(1, [&](Cpu &cpu) {
        // Spin (stay schedulable) until cpu0 has created the VM.
        while (!vm || vm->vcpus().size() < 2)
            cpu.compute(500);
        auto &vcpu1 = *vm->vcpus()[1];

        vcpu1.run(cpu, [&](Cpu &c) {
            guest1.boot(c);
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

} // namespace

MicroResults
runArmMicrobench(const ArmMicroSetup &setup)
{
    return runTable3<ArmArch>(
        {.numCpus = 2,
         .ramSize = 256 * kMiB,
         .kvm = {.useVgic = setup.useVgic, .useVtimers = setup.useVtimers}},
        setup.iterations);
}

MicroResults
runX86Microbench(const X86MicroSetup &setup)
{
    return runTable3<X86Arch>(
        {.numCpus = 2, .ramSize = 256 * kMiB, .platform = setup.platform},
        setup.iterations);
}

} // namespace kvmarm::wl
