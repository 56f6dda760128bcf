/**
 * @file
 * Ablation: what does split-mode virtualization cost, and what does it
 * buy? (Paper §3.1 and §5.2.)
 *
 * Compares KVM/ARM's hypercall / trap / in-hypervisor-I/O costs against a
 * bare-metal Hyp-resident hypervisor that handles the same traps without
 * any world switch, and decomposes KVM/ARM's hypercall to show that the
 * split's *double trap* contributes only ~1% — the cost is the software
 * world switch itself, which any hosted design pays.
 */

#include <cstdio>

#include "baremetal/baremetal_hv.hh"
#include "bench_util.hh"
#include "workload/microbench.hh"

namespace {

using namespace kvmarm;

struct BareMetalResults
{
    Cycles hypercall = 0;
    Cycles trap = 0;
    Cycles ioHyp = 0;
};

BareMetalResults
runBareMetal()
{
    arm::ArmMachine machine(arm::ArmMachine::Config{
        .numCpus = 1, .ramSize = 256 * kMiB, .hwVgic = true,
        .hwVtimers = true, .clockHz = 1.7e9, .cost = {}});
    baremetal::BareMetalHv hv(machine);
    BareMetalResults results;
    bench::NullOs guest_os;

    machine.cpu(0).setEntry([&] {
        arm::ArmCpu &cpu = machine.cpu(0);
        hv.boot(cpu);
        hv.createGuest(16 * kMiB);
        hv.runGuest(cpu, [&](arm::ArmCpu &c) {
            constexpr unsigned iters = 64;
            c.hvc(baremetal::bmhvc::kTestHypercall); // warm up

            Cycles t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.hvc(baremetal::bmhvc::kTestHypercall);
            results.hypercall = (c.now() - t0) / iters;
            // In a Hyp-resident design a minimal trap and a hypercall
            // are the same thing; report both.
            results.trap = results.hypercall;

            t0 = c.now();
            for (unsigned i = 0; i < iters; ++i)
                c.memWrite(baremetal::BareMetalHv::kHypDevBase, i, 4);
            results.ioHyp = (c.now() - t0) / iters;
        }, &guest_os);
    });
    machine.run();
    return results;
}

} // namespace

int
main()
{
    wl::MicroResults kvm = wl::runArmMicrobench({true, true, 64});
    BareMetalResults bm = runBareMetal();

    using kvmarm::bench::Row;
    std::vector<Row> rows = {
        {"Hypercall", {double(kvm.hypercall), double(bm.hypercall)}, {}},
        {"Trap only", {double(kvm.trap), double(bm.trap)}, {}},
        {"I/O in hypervisor/kernel",
         {double(kvm.ioKernel), double(bm.ioHyp)}, {}},
    };
    kvmarm::bench::printTable(
        "Ablation: split-mode (KVM/ARM) vs Hyp-resident bare-metal "
        "hypervisor (cycles)",
        {"KVM/ARM", "bare-metal"}, rows);

    // Split mode reaches the host through Hyp mode: two measured traps.
    double double_trap = 2.0 * double(kvm.trap);
    std::printf(
        "\nDecomposition of the split: the double trap adds %.0f cycles "
        "of KVM/ARM's %llu-cycle\nhypercall (%.1f%%) — \"this extra trap "
        "is not a significant performance cost\" (paper §3.1).\nThe rest "
        "is the software world switch any hosted design performs; what "
        "the bare-metal\ndesign saves on traps it pays in portability: "
        "its own allocator, scheduler and drivers\n(src/baremetal vs the "
        "host services src/core reuses).\n",
        double_trap, (unsigned long long)kvm.hypercall,
        100.0 * double_trap / double(kvm.hypercall));
    return 0;
}
