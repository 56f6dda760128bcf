/**
 * @file
 * Reproduces Figure 7, "SMP VM Normalized Energy Consumption": energy of
 * the virtualized run over the native run for the eight Table 2
 * workloads, ARM (Arndale, supply-shunt model) versus the x86 laptop
 * (battery/ACPI model) — the only platforms the paper measured power on.
 */

#include "bench_util.hh"

int
main()
{
    using namespace kvmarm;
    using wl::column, wl::Platform;
    const wl::FigureResults r = wl::runFigure(wl::Figure::Fig7);
    std::vector<bench::Row> rows;
    for (const auto &[app, o] : r.appsSmp)
        rows.push_back({wl::appName(app),
                        {o[column(Platform::ArmVgic)].energyOverhead,
                         o[column(Platform::X86Laptop)].energyOverhead},
                        {}});
    bench::printTable("Figure 7: SMP VM Normalized Energy Consumption",
                      {"ARM", "x86-laptop"}, rows, 2);
    bench::printClaims(wl::Figure::Fig7, r);
    return 0;
}
