/**
 * @file
 * Shared driver for the application-workload figures (Figures 5-7).
 */

#ifndef KVMARM_BENCH_FIG_APPS_COMMON_HH
#define KVMARM_BENCH_FIG_APPS_COMMON_HH

#include <map>
#include <vector>

#include "bench_util.hh"
#include "workload/apps.hh"

namespace kvmarm::benchfig {

/** Outcomes for one figure: [app] -> one AppOutcome per platform. */
using AppFigure = std::map<wl::App, std::vector<wl::AppOutcome>>;

inline const std::vector<wl::Platform> &
appPlatforms()
{
    static const std::vector<wl::Platform> p = {
        wl::Platform::ArmVgic, wl::Platform::ArmNoVgic,
        wl::Platform::X86Laptop, wl::Platform::X86Server};
    return p;
}

inline AppFigure
runAppFigure(bool smp)
{
    AppFigure fig;
    for (wl::App app : wl::allApps()) {
        for (wl::Platform p : appPlatforms())
            fig[app].push_back(wl::runApp(app, p, smp));
    }
    return fig;
}

/** Print the virtualized/native runtime of every app on every platform. */
inline void
printAppFigure(const char *title, const AppFigure &fig, const char *footer)
{
    std::vector<bench::Row> rows;
    for (const auto &[app, outcomes] : fig) {
        std::vector<double> values;
        for (const wl::AppOutcome &o : outcomes)
            values.push_back(o.overhead);
        rows.push_back({wl::appName(app), values, {}});
    }
    bench::printFigure(
        title, {"ARM", "ARM-noVGIC", "x86-lap", "x86-srv"}, rows, footer);
}

} // namespace kvmarm::benchfig

#endif // KVMARM_BENCH_FIG_APPS_COMMON_HH
