/**
 * @file
 * Experiment harness: assembles the four measurement stacks of the paper
 * — native and virtualized execution on the ARM and x86 machines — boots
 * the miniature Linux on 1 or 2 CPUs, runs a workload, and reports elapsed
 * cycles, utilization and wall-clock seconds for the normalized
 * performance and energy figures.
 */

#ifndef KVMARM_WORKLOAD_HARNESS_HH
#define KVMARM_WORKLOAD_HARNESS_HH

#include <functional>

#include "core/types.hh"
#include "workload/sysport.hh"
#include "x86/machine.hh"

namespace kvmarm::wl {

/** The four platform configurations of the evaluation. */
enum class Platform
{
    ArmVgic,    //!< KVM/ARM with VGIC/vtimers
    ArmNoVgic,  //!< KVM/ARM without VGIC/vtimers
    X86Laptop,  //!< KVM x86, laptop calibration
    X86Server,  //!< KVM x86, server calibration
};

const char *platformName(Platform p);

/** Outcome of one measured run. */
struct RunMetrics
{
    Cycles elapsed = 0;   //!< workload duration on CPU0
    double cpuUtil = 0;   //!< busy fraction across CPUs
    double seconds = 0;   //!< elapsed converted at the platform clock
};

/** Workload body on CPU0's port: runs the workload (including any
 *  unmeasured warm-up) and returns the measured elapsed cycles. */
using WorkFn = std::function<Cycles(SysPort &)>;
/**
 * Workload body on CPU1's port (SMP runs only). It must return once the
 * work has returned: the run lasts until every CPU's body returns, and
 * only CPU0's work is measured, so a side that idles on after the work
 * returned moves no measured cycle, only cpuUtil and the run's host
 * time. The workloads end their sides in one of three ways, each through
 * state that prepare resets:
 *  - apps: the work sets AppShared::done and sends a reschedule IPI to
 *    wake the worker loop;
 *  - pipe/ctxsw ping-pong: both sides stop when SmpChannel::token
 *    reaches SmpChannel::rounds;
 *  - the other SMP lmbench cells: the work sets a done flag after its
 *    measured run, and the idling side sees it on its next tick.
 */
using SideFn = std::function<void(SysPort &)>;

/** Devices the workload may kick (slots are assigned in this order). */
struct DeviceSetup
{
    bool net = false;     //!< slot 0: 100 Mb Ethernet
    bool disk = false;    //!< slot 1: SSD
    bool remote = false;  //!< slot 2: LAN server (RTT-dominated)
};

/** One experiment: same workload run native and virtualized. */
struct Experiment
{
    Platform platform = Platform::ArmVgic;
    unsigned numCpus = 1; //!< 1 or 2
    DeviceSetup devices;
    WorkFn work;   //!< required (runs fatal without it)
    SideFn side;   //!< required when numCpus == 2
    /** Reset shared workload state; invoked before each run. */
    std::function<void()> prepare;
};

/** Run natively (no hypervisor). */
RunMetrics runNative(const Experiment &exp);

/** Run inside a VM under the platform's hypervisor. */
RunMetrics runVirt(const Experiment &exp);

/** Convenience: virt/native overhead of the same experiment. */
double overhead(const Experiment &exp);

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_HARNESS_HH
