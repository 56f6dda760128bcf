/**
 * @file
 * The lmbench 3.0 workload models (paper §5.1, Figures 3 and 4), written
 * once against SysPort. Each operation is a composition of the kernel-path
 * events that dominate its cost: syscall edges, scheduler clock reads,
 * context switches, IPIs, faults, and idle transitions — the events whose
 * per-architecture virtualization cost the micro-benchmarks calibrate.
 */

#ifndef KVMARM_WORKLOAD_LINUX_MODEL_HH
#define KVMARM_WORKLOAD_LINUX_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/sysport.hh"

namespace kvmarm::wl {

/** Path-length constants of the modelled Linux kernel (cycles). */
struct LinuxCosts
{
    Cycles userWork = 60;
    Cycles syscallWork = 600;     //!< null syscall kernel body
    Cycles pipeCopy = 2600;       //!< pipe buffer copy + locking
    Cycles sockWork = 3600;       //!< af_unix socket path
    Cycles tcpWork = 7000;        //!< tcp/ip loopback stack
    Cycles wakeup = 600;          //!< try_to_wake_up
    Cycles schedPick = 520;       //!< pick_next_task + runqueue ops
    Cycles switchThread = 980;    //!< switch_to + state save
    unsigned clockReadsPerSwitch = 2; //!< update_rq_clock calls
    Cycles forkWork = 110000;
    unsigned forkPages = 36;      //!< page tables copied/COW-marked
    Cycles execWork = 210000;
    unsigned execPages = 56;      //!< fresh mappings touched by exec
    Cycles tickInterval = 170000; //!< 10 ms tick at 1.7 GHz / NOHZ slice
};

/** The lmbench workloads of Figures 3-4. */
enum class LmWorkload
{
    Fork,
    Exec,
    Pipe,
    Ctxsw,
    ProtFault,
    PageFault,
    AfUnix,
    Tcp,
};

const char *lmWorkloadName(LmWorkload w);
std::vector<LmWorkload> allLmWorkloads();

/** Uniprocessor lmbench operations on one port. */
class LmbenchOps
{
  public:
    explicit LmbenchOps(SysPort &port, const LinuxCosts &costs = {});

    /** Run @p iters iterations of @p w; returns elapsed cycles. */
    Cycles run(LmWorkload w, unsigned iters, bool smp = false);

    /// @name Individual operations
    /// @{
    void nullSyscall();
    void ctxswRound();
    void pipeRound();
    void forkOp(bool smp);
    void execOp(bool smp);
    void protFaultOp(bool smp);
    void pageFaultOp();
    void afUnixRound();
    void tcpRound();
    /// @}

    /** One in-kernel context switch (clock reads + pick + mmu + state). */
    void switchTo();

  private:
    SysPort &port_;
    LinuxCosts costs_;
};

/** Shared state of a two-CPU ping-pong benchmark (pipe/ctxsw SMP); both
 *  sides return once token reaches rounds. */
struct SmpChannel
{
    std::uint64_t token = 0;  //!< whose turn (round counter)
    std::uint64_t rounds = 0; //!< total rounds to run
};

/**
 * One side of the SMP pipe benchmark ("we pinned each benchmark process
 * to a separate CPU", paper §5.1). @p first runs rounds where token is
 * even. Includes the NOHZ idle dance: clock read + timer reprogram before
 * sleeping — the source of the paper's timer-related overheads.
 */
void pipeSmpSide(SysPort &port, SmpChannel &ch, bool first, bool with_copy,
                 const LinuxCosts &costs = {});

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_LINUX_MODEL_HH
