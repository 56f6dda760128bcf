/**
 * @file
 * I/O server example: an apache-shaped VM serving requests through the
 * emulated network device, comparing virtualized against native execution
 * of the identical workload — the paper's whole measurement methodology
 * in one runnable program — and estimating energy with the Arndale power
 * model.
 */

#include <cstdio>

#include "power/energy.hh"
#include "workload/apps.hh"
#include "workload/harness.hh"

using namespace kvmarm;

int
main()
{
    std::printf("=== io_server ===\n");
    std::printf("apache-shaped server VM, 2 VCPUs on 2 cores "
                "(KVM/ARM with VGIC/vtimers)\n\n");

    wl::AppOutcome out =
        wl::runApp(wl::App::Apache, wl::Platform::ArmVgic, true);

    power::PowerProfile profile = power::arndaleProfile();
    double native_j = power::energyJoules(profile, out.native.seconds,
                                          out.native.cpuUtil);
    double virt_j = power::energyJoules(profile, out.virt.seconds,
                                        out.virt.cpuUtil);

    std::printf("                      %12s %12s\n", "native", "KVM/ARM");
    std::printf("elapsed (cycles)      %12llu %12llu\n",
                (unsigned long long)out.native.elapsed,
                (unsigned long long)out.virt.elapsed);
    std::printf("elapsed (ms)          %12.2f %12.2f\n",
                1e3 * out.native.seconds, 1e3 * out.virt.seconds);
    std::printf("CPU utilization       %12.2f %12.2f\n",
                out.native.cpuUtil, out.virt.cpuUtil);
    std::printf("energy (J, model)     %12.4f %12.4f\n", native_j, virt_j);
    std::printf("\nnormalized performance overhead: %.3f "
                "(paper: within ~10%% of native on multicore)\n",
                out.overhead);
    std::printf("normalized energy overhead:      %.3f\n",
                out.energyOverhead);
    return 0;
}
