/**
 * @file
 * Reproduces Figure 5, "UP VM Normalized Application Performance": the
 * eight Table 2 workloads on one core, virtualized/native.
 */

#include "bench_util.hh"

int
main()
{
    using namespace kvmarm;
    bench::printFigure("Figure 5: UP VM Normalized Application Performance",
                       wl::Figure::Fig5);
    return 0;
}
