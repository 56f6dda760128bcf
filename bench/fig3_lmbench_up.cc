/**
 * @file
 * Reproduces Figure 3, "UP VM Normalized lmbench Performance": one VCPU
 * on one core, each lmbench workload's virtualized runtime normalized to
 * native execution, on all four platform configurations.
 */

#include "bench_util.hh"

int
main()
{
    using namespace kvmarm;
    bench::printFigure("Figure 3: UP VM Normalized lmbench Performance",
                       wl::Figure::Fig3);
    return 0;
}
