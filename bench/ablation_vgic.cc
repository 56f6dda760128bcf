/**
 * @file
 * Ablation: VGIC state context-switch policy (paper §5.2 and the §6
 * recommendation "Make VGIC state access fast, or at least infrequent").
 *
 * Compares the merged-unoptimized policy (full save/restore of all 16+4
 * VGIC registers over MMIO on every world switch) against the lazy policy
 * the paper sketches (skip the list registers when no virtual interrupts
 * are in flight, which a summary register would make even cheaper), and
 * against no VGIC at all.
 */

#include <cstdio>

#include "arm/cpu.hh"
#include "bench_util.hh"

namespace {

using namespace kvmarm;

/** Hypercall cost under a given VGIC policy. */
Cycles
hypercallCost(bool use_vgic, bool lazy)
{
    core::KvmConfig kc;
    kc.useVgic = use_vgic;
    kc.lazyVgic = lazy;
    Cycles result = 0;
    bench::runSingleVcpu(kc, [&](arm::ArmCpu &c) {
        constexpr unsigned iters = 64;
        c.hvc(core::hvc::kTestHypercall);
        Cycles t0 = c.now();
        for (unsigned i = 0; i < iters; ++i)
            c.hvc(core::hvc::kTestHypercall);
        result = (c.now() - t0) / iters;
    });
    return result;
}

} // namespace

int
main()
{
    Cycles full = hypercallCost(true, false);
    Cycles lazy = hypercallCost(true, true);
    Cycles none = hypercallCost(false, false);

    using kvmarm::bench::Row;
    std::vector<Row> rows = {
        {"full VGIC switch (merged code)", {double(full)}, {}},
        {"lazy VGIC switch (paper 5.2/6)", {double(lazy)}, {}},
        {"no VGIC hardware", {double(none)}, {}},
    };
    kvmarm::bench::printTable(
        "Ablation: hypercall cost by VGIC context-switch policy (cycles)",
        {"hypercall"}, rows);
    std::printf(
        "\nVGIC state accounts for %.0f%% of the full-switch hypercall "
        "(paper: \"over half\"); lazily\nskipping idle list registers "
        "recovers %.0f%% of that — the §6 summary-register "
        "recommendation\nwould make the remaining check nearly free.\n",
        100.0 * double(full - none) / double(full),
        100.0 * double(full - lazy) / double(full - none));
    return 0;
}
