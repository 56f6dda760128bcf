/**
 * @file
 * Reproduces Figure 7, "SMP VM Normalized Energy Consumption": energy of
 * the virtualized run over the native run for the eight Table 2
 * workloads, ARM (Arndale, supply-shunt model) versus the x86 laptop
 * (battery/ACPI model) — the only platforms the paper measured power on.
 */

#include "fig_apps_common.hh"

int
main()
{
    using namespace kvmarm;
    // Figure 7 plots only ARM and the x86 laptop.
    std::vector<bench::Row> rows;
    for (const auto &[app, outcomes] : benchfig::runAppFigure(true)) {
        rows.push_back({wl::appName(app),
                        {outcomes[0].energyOverhead,
                         outcomes[2].energyOverhead},
                        {}});
    }
    bench::printFigure(
        "Figure 7: SMP VM Normalized Energy Consumption",
        {"ARM", "x86-laptop"}, rows,
        "Paper claim: KVM/ARM is more power efficient than KVM x86 for "
        "the CPU-bound and server\nworkloads; for I/O-bound workloads "
        "(paper: memcached, untar; here also the curls) power is\nnear "
        "idle either way and small ARM overheads can exceed x86's — see "
        "EXPERIMENTS.md for the\nper-workload comparison.");
    return 0;
}
