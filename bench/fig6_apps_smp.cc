/**
 * @file
 * Reproduces Figure 6, "SMP VM Normalized Application Performance": the
 * eight Table 2 workloads on two cores, virtualized/native.
 */

#include "bench_util.hh"

int
main()
{
    using namespace kvmarm;
    bench::printFigure("Figure 6: SMP VM Normalized Application Performance",
                       wl::Figure::Fig6);
    return 0;
}
