/**
 * @file
 * Shared driver for the lmbench figures (Figures 3 and 4): runs every
 * lmbench workload on the four platform configurations, normalized
 * virtualized/native, and prints the figure as a table.
 */

#ifndef KVMARM_BENCH_FIG_LMBENCH_COMMON_HH
#define KVMARM_BENCH_FIG_LMBENCH_COMMON_HH

#include <map>
#include <memory>

#include "bench_util.hh"
#include "workload/harness.hh"
#include "workload/linux_model.hh"

namespace kvmarm::benchfig {

inline constexpr unsigned kWarm = 70;
inline constexpr unsigned kIters = 80;

inline const std::vector<wl::Platform> &
platforms()
{
    static const std::vector<wl::Platform> p = {
        wl::Platform::ArmVgic, wl::Platform::ArmNoVgic,
        wl::Platform::X86Laptop, wl::Platform::X86Server};
    return p;
}

/** Build the experiment for one lmbench workload. */
inline wl::Experiment
lmbenchExperiment(wl::Platform platform, wl::LmWorkload w, bool smp)
{
    using namespace wl;
    Experiment exp;
    exp.platform = platform;
    exp.numCpus = smp ? 2 : 1;

    bool pingpong =
        smp && (w == LmWorkload::Pipe || w == LmWorkload::Ctxsw);
    if (!pingpong) {
        exp.work = [w, smp](SysPort &port) -> Cycles {
            LmbenchOps ops(port);
            ops.run(w, kWarm, smp);
            return ops.run(w, kIters, smp);
        };
        if (smp) {
            exp.side = [](SysPort &port) {
                // The other core idles through its tick, as for a pinned
                // single-threaded benchmark.
                LinuxCosts costs;
                for (int i = 0; i < 4000; ++i) {
                    (void)port.schedClock();
                    port.timerProgram(3 * costs.tickInterval);
                    port.idle();
                }
            };
        }
    } else {
        auto ch = std::make_shared<SmpChannel>();
        bool copy = w == LmWorkload::Pipe;
        exp.prepare = [ch] {
            *ch = SmpChannel{};
            ch->rounds = 2 * (kWarm + kIters);
        };
        exp.work = [ch, copy](SysPort &port) -> Cycles {
            Cycles t0 = port.now();
            pipeSmpSide(port, *ch, true, copy);
            return port.now() - t0;
        };
        exp.side = [ch, copy](SysPort &port) {
            pipeSmpSide(port, *ch, false, copy);
        };
    }
    return exp;
}

/** Run the whole figure; returns overhead[workload][platform]. */
inline std::map<wl::LmWorkload, std::vector<double>>
runLmbenchFigure(bool smp)
{
    std::map<wl::LmWorkload, std::vector<double>> result;
    for (wl::LmWorkload w : wl::allLmWorkloads()) {
        for (wl::Platform p : platforms()) {
            result[w].push_back(
                wl::overhead(lmbenchExperiment(p, w, smp)));
        }
    }
    return result;
}

inline void
printLmbenchFigure(const char *title,
                   const std::map<wl::LmWorkload, std::vector<double>> &fig,
                   const char *footer)
{
    std::vector<bench::Row> rows;
    for (const auto &[w, values] : fig)
        rows.push_back({wl::lmWorkloadName(w), values, {}});
    bench::printFigure(title,
                       {"ARM", "ARM-noVGIC", "x86-lap", "x86-srv"}, rows,
                       footer);
}

} // namespace kvmarm::benchfig

#endif // KVMARM_BENCH_FIG_LMBENCH_COMMON_HH
