/**
 * @file
 * Reproduces Figure 4, "SMP VM Normalized lmbench Performance": two VCPUs
 * on two cores, benchmark processes pinned to separate CPUs (paper §5.1),
 * normalized virtualized/native.
 */

#include "bench_util.hh"

int
main()
{
    using namespace kvmarm;
    bench::printFigure("Figure 4: SMP VM Normalized lmbench Performance",
                       wl::Figure::Fig4);
    return 0;
}
