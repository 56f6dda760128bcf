/**
 * @file
 * Ablation: lazy VFP context switching (paper §3.2, "KVM/ARM defers
 * switching certain register state until absolutely necessary, which
 * slightly improves performance under certain workloads").
 *
 * A guest alternates hypercall-heavy phases with occasional FP bursts;
 * with lazy switching the 32x64-bit VFP file only moves when the guest
 * actually uses FP, at the price of one extra trap when it does.
 */

#include <cstdio>

#include "arm/cpu.hh"
#include "bench_util.hh"

namespace {

using namespace kvmarm;

/** Cycles for a workload of @p exits guest exits with FP used every
 *  @p fp_period exits (0 = never). */
Cycles
runFpWorkload(bool lazy, unsigned exits, unsigned fp_period)
{
    core::KvmConfig kc;
    kc.lazyFpu = lazy;
    Cycles result = 0;
    bench::runSingleVcpu(kc, [&](arm::ArmCpu &c) {
        Cycles t0 = c.now();
        for (unsigned i = 0; i < exits; ++i) {
            c.hvc(core::hvc::kTestHypercall);
            if (fp_period && i % fp_period == 0)
                c.fpOp(400);
            else
                c.compute(400);
        }
        result = (c.now() - t0) / exits;
    });
    return result;
}

} // namespace

int
main()
{
    Cycles lazy_nofp = runFpWorkload(true, 128, 0);
    Cycles eager_nofp = runFpWorkload(false, 128, 0);
    Cycles lazy_fp = runFpWorkload(true, 128, 8);
    Cycles eager_fp = runFpWorkload(false, 128, 8);

    using kvmarm::bench::Row;
    std::vector<Row> rows = {
        {"integer-only guest", {double(lazy_nofp), double(eager_nofp)}, {}},
        {"FP every 8th exit", {double(lazy_fp), double(eager_fp)}, {}},
    };
    kvmarm::bench::printTable(
        "Ablation: lazy VFP switching, cycles per guest exit",
        {"lazy", "eager"}, rows);
    std::printf(
        "\nLazy switching saves %.0f cycles per exit for integer-only "
        "guests (the 32x64-bit VFP file\nplus control registers never "
        "move) and still wins at moderate FP usage; the HCPTR trap\nonly "
        "costs when the guest actually touches FP (paper §3.2).\n",
        double(eager_nofp) - double(lazy_nofp));
    return 0;
}
