/**
 * @file
 * Reproduces Figure 3, "UP VM Normalized lmbench Performance": one VCPU
 * on one core, each lmbench workload's virtualized runtime normalized to
 * native execution, on all four platform configurations.
 */

#include "fig_lmbench_common.hh"

int
main()
{
    using namespace kvmarm;
    benchfig::printLmbenchFigure(
        "Figure 3: UP VM Normalized lmbench Performance",
        benchfig::runLmbenchFigure(false),
        "Paper claims reproduced: KVM/ARM and KVM x86 show similar UP "
        "overhead (near 1.0 across\nworkloads); without VGIC/vtimers the "
        "pipe and ctxsw overheads are substantial, because each\nrun-queue "
        "clock read traps to user space (paper §5.2).");
    return 0;
}
