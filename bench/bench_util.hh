/**
 * @file
 * Shared helpers for the reproduction benches: paper-style table printing
 * with side-by-side paper-reported values and deltas, and the single-VCPU
 * stack the ablations measure on.
 */

#ifndef KVMARM_BENCH_BENCH_UTIL_HH
#define KVMARM_BENCH_BENCH_UTIL_HH

#include <functional>
#include <string>
#include <vector>

#include "arm/vectors.hh"
#include "core/types.hh"

namespace kvmarm::bench {

/** One row: a label, measured values, and the paper's values (0 = n/a). */
struct Row
{
    std::string name;
    std::vector<double> measured;
    std::vector<double> paper;
};

/** Print a table comparing measured vs paper values column by column. */
void printTable(const std::string &title,
                const std::vector<std::string> &columns,
                const std::vector<Row> &rows, const std::string &footer = "",
                int precision = 0);

/** Print a normalized-overhead figure (values around 1.0). */
void printFigure(const std::string &title,
                 const std::vector<std::string> &series,
                 const std::vector<Row> &rows,
                 const std::string &footer = "");

/** Guest kernel vectors that ignore every exception. */
class NullOs : public arm::OsVectors
{
  public:
    void irq(arm::ArmCpu &) override {}
    void svc(arm::ArmCpu &, std::uint32_t) override {}
    bool pageFault(arm::ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "guest"; }
};

/**
 * Run @p guest as the only VCPU of a 32 MiB VM, on the 1-CPU, 256 MiB
 * KvmStack built with @p config. @p os takes the guest's PL1 exceptions;
 * null means a NullOs.
 */
void runSingleVcpu(const core::KvmConfig &config,
                   const std::function<void(arm::ArmCpu &)> &guest,
                   arm::OsVectors *os = nullptr);

} // namespace kvmarm::bench

#endif // KVMARM_BENCH_BENCH_UTIL_HH
