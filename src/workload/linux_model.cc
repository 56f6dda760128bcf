#include "workload/linux_model.hh"

#include "sim/logging.hh"

namespace kvmarm::wl {

const char *
lmWorkloadName(LmWorkload w)
{
    switch (w) {
      case LmWorkload::Fork: return "fork";
      case LmWorkload::Exec: return "exec";
      case LmWorkload::Pipe: return "pipe";
      case LmWorkload::Ctxsw: return "ctxsw";
      case LmWorkload::ProtFault: return "prot fault";
      case LmWorkload::PageFault: return "page fault";
      case LmWorkload::AfUnix: return "af_unix";
      case LmWorkload::Tcp: return "tcp";
    }
    return "?";
}

std::vector<LmWorkload>
allLmWorkloads()
{
    return {LmWorkload::Fork,      LmWorkload::Exec,
            LmWorkload::Pipe,      LmWorkload::Ctxsw,
            LmWorkload::ProtFault, LmWorkload::PageFault,
            LmWorkload::AfUnix,    LmWorkload::Tcp};
}

LmbenchOps::LmbenchOps(SysPort &port, const LinuxCosts &costs)
    : port_(port), costs_(costs)
{
}

void
LmbenchOps::switchTo()
{
    // Dequeue/enqueue both update the runqueue clock: the counter reads
    // that dominate ctxsw/pipe overhead without vtimers (paper §5.2).
    for (unsigned i = 0; i < costs_.clockReadsPerSwitch; ++i)
        (void)port_.schedClock();
    port_.kernelCompute(costs_.schedPick);
    port_.contextSwitchMmu();
    port_.kernelCompute(costs_.switchThread);
}

void
LmbenchOps::nullSyscall()
{
    port_.userCompute(costs_.userWork);
    port_.syscallEdge();
    port_.kernelCompute(costs_.syscallWork);
}

void
LmbenchOps::ctxswRound()
{
    // lat_ctx, two processes, zero working set: one round is two
    // pipe-token handoffs, each blocking and switching.
    for (int leg = 0; leg < 2; ++leg) {
        port_.userCompute(costs_.userWork);
        port_.syscallEdge();
        port_.kernelCompute(costs_.pipeCopy / 2);
        port_.kernelCompute(costs_.wakeup);
        switchTo();
    }
}

void
LmbenchOps::pipeRound()
{
    // lat_pipe: a token bounced between two processes through two pipes.
    for (int leg = 0; leg < 2; ++leg) {
        port_.userCompute(costs_.userWork);
        port_.syscallEdge(); // write
        port_.kernelCompute(costs_.pipeCopy);
        port_.kernelCompute(costs_.wakeup);
        port_.syscallEdge(); // blocking read of the other end
        switchTo();
    }
}

void
LmbenchOps::forkOp(bool smp)
{
    port_.userCompute(costs_.userWork);
    port_.syscallEdge();
    port_.kernelCompute(costs_.forkWork);
    port_.ptSetup(costs_.forkPages);
    // COW-protecting the parent's pages requires flushing stale TLB
    // entries everywhere (the x86/ARM shootdown asymmetry).
    port_.tlbShootdown(smp);
    switchTo(); // child runs
    // Child exits immediately (fork+exit benchmark): teardown + reap.
    port_.kernelCompute(costs_.forkWork / 3);
    port_.tlbShootdown(smp);
    switchTo();
}

void
LmbenchOps::execOp(bool smp)
{
    port_.userCompute(costs_.userWork);
    port_.syscallEdge();
    port_.kernelCompute(costs_.execWork);
    port_.tlbShootdown(smp); // old mm torn down
    port_.ptSetup(costs_.execPages / 4);
    // Touch the new image: demand faults on entry.
    for (unsigned i = 0; i < costs_.execPages; ++i)
        port_.demandFault();
}

void
LmbenchOps::protFaultOp(bool smp)
{
    // lat_sig is single threaded: no remote TLBs share the mm, so x86
    // sends no shootdown IPI; ARM's TLBI broadcasts regardless — part of
    // why protection faults cost KVM/ARM relatively more (paper §5.2).
    (void)smp;
    port_.protFault();
}

void
LmbenchOps::pageFaultOp()
{
    port_.demandFault();
}

void
LmbenchOps::afUnixRound()
{
    for (int leg = 0; leg < 2; ++leg) {
        port_.userCompute(costs_.userWork);
        port_.syscallEdge();
        port_.kernelCompute(costs_.sockWork);
        port_.kernelCompute(costs_.wakeup);
        port_.syscallEdge();
        switchTo();
    }
}

void
LmbenchOps::tcpRound()
{
    for (int leg = 0; leg < 2; ++leg) {
        port_.userCompute(costs_.userWork);
        port_.syscallEdge();
        port_.kernelCompute(costs_.tcpWork);
        // Loopback TX raises the net softirq, which re-reads the clock.
        (void)port_.schedClock();
        port_.kernelCompute(costs_.wakeup);
        port_.syscallEdge();
        switchTo();
    }
}

Cycles
LmbenchOps::run(LmWorkload w, unsigned iters, bool smp)
{
    Cycles t0 = port_.now();
    for (unsigned i = 0; i < iters; ++i) {
        switch (w) {
          case LmWorkload::Fork:
            forkOp(smp);
            break;
          case LmWorkload::Exec:
            execOp(smp);
            break;
          case LmWorkload::Pipe:
            pipeRound();
            break;
          case LmWorkload::Ctxsw:
            ctxswRound();
            break;
          case LmWorkload::ProtFault:
            protFaultOp(smp);
            break;
          case LmWorkload::PageFault:
            pageFaultOp();
            break;
          case LmWorkload::AfUnix:
            afUnixRound();
            break;
          case LmWorkload::Tcp:
            tcpRound();
            break;
        }
    }
    return port_.now() - t0;
}

void
pipeSmpSide(SysPort &port, SmpChannel &ch, bool first, bool with_copy,
            const LinuxCosts &costs)
{
    // Each side runs the legs where (token % 2) matches its parity; the
    // remote wakeup is a real reschedule IPI and the wait is real idle.
    std::uint64_t parity = first ? 0 : 1;
    unsigned other = first ? 1 : 0;

    auto my_turn = [&] { return ch.token % 2 == parity; };

    while (true) {
        // Wait for our turn (blocking read of the pipe -> idle).
        while (!my_turn() && ch.token < ch.rounds) {
            (void)port.schedClock();
            port.timerProgram(costs.tickInterval); // NOHZ re-arm
            // The wakeup IPI may have been consumed while re-arming; only
            // sleep if it is still not our turn (need_resched check).
            if (!my_turn() && ch.token < ch.rounds) {
                port.idle();
                // tick_nohz_idle_exit: re-arm the tick on idle exit —
                // free on ARM's virtual timer, trapping on the x86 APIC.
                port.timerProgram(costs.tickInterval);
            }
        }
        if (ch.token >= ch.rounds)
            break;

        // Our leg: read the token, process, write it back to the peer.
        port.syscallEdge(); // read returns
        if (with_copy)
            port.kernelCompute(costs.pipeCopy);
        port.userCompute(costs.userWork);
        port.syscallEdge(); // write
        if (with_copy)
            port.kernelCompute(costs.pipeCopy);
        for (unsigned i = 0; i < costs.clockReadsPerSwitch; ++i)
            (void)port.schedClock();
        port.kernelCompute(costs.wakeup);
        ++ch.token;
        port.sendRescheduleIpi(other);
    }
}

} // namespace kvmarm::wl
