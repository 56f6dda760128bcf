/**
 * @file
 * The raw simulated cycles behind Figures 3-6: one line per lmbench and
 * application cell, giving its native and virtualized elapsed cycles on
 * CPU0. The figure programs print ratios rounded to two decimals, so a
 * shift of an elapsed count that leaves its ratio's rounding alone shows
 * only here. Utilization is left out: it is not a measured result of
 * Figures 3-6.
 */

#include <cstdio>

#include "workload/claims.hh"

namespace {

using namespace kvmarm;

void
printCell(const char *section, const char *workload, wl::Platform p,
          const wl::Experiment &exp)
{
    const Cycles native = wl::runNative(exp).elapsed;
    const Cycles virt = wl::runVirt(exp).elapsed;
    std::printf("%s | %s | %s | %llu | %llu\n", section, workload,
                wl::platformName(p), static_cast<unsigned long long>(native),
                static_cast<unsigned long long>(virt));
}

void
printLmbench(const char *section, bool smp)
{
    for (wl::LmWorkload w : wl::allLmWorkloads())
        for (wl::Platform p : wl::kPlatforms)
            printCell(section, wl::lmWorkloadName(w), p,
                      wl::lmbenchExperiment(p, w, smp));
}

void
printApps(const char *section, bool smp)
{
    for (wl::App a : wl::allApps())
        for (wl::Platform p : wl::kPlatforms)
            printCell(section, wl::appName(a), p,
                      wl::makeAppExperiment(a, p, smp));
}

} // namespace

int
main()
{
    std::printf("\n=== Paper cells: native and virt elapsed cycles of "
                "Figures 3-6 ===\n");
    std::printf("figure | workload | platform | native | virt\n");
    printLmbench("fig3", false);
    printLmbench("fig4", true);
    printApps("fig5", false);
    printApps("fig6", true);
    return 0;
}
