/**
 * @file
 * SysPort: the architecture-dependent substrate a modelled Linux kernel
 * runs on (the arch/ layer). The workload models (lmbench, the Table 2
 * applications) are written once against this interface; the ARM and x86
 * adapters issue real machine operations, so the same workload runs
 * natively and inside a VM on either architecture — which is exactly how
 * the paper obtains its normalized overhead figures.
 */

#ifndef KVMARM_WORKLOAD_SYSPORT_HH
#define KVMARM_WORKLOAD_SYSPORT_HH

#include <cstdint>

#include "sim/types.hh"

namespace kvmarm::wl {

/** Per-CPU architecture port used by the Linux model. */
class SysPort
{
  public:
    virtual ~SysPort() = default;

    /** Index of this CPU within the OS instance (0 or 1). */
    virtual unsigned cpuIndex() const = 0;

    /** Current cycle clock (harness-level measurement only). */
    virtual Cycles now() = 0;

    /// @name Execution
    /// @{
    virtual void kernelCompute(Cycles c) = 0;
    virtual void userCompute(Cycles c) = 0;
    /** A floating point burst (lazy-FP trap behaviour in VMs). */
    virtual void fpCompute(Cycles c) = 0;
    /// @}

    /// @name Clocks and timers (sched_clock + clockevents)
    /// @{
    /** Read the scheduler clock: ARM reads the virtual counter, x86
     *  executes rdtsc. Traps only in the no-vtimers configuration. */
    virtual std::uint64_t schedClock() = 0;

    /** Program the per-CPU oneshot timer @p delta cycles out: direct on
     *  ARM with vtimers, a trapping APIC access on x86. */
    virtual void timerProgram(Cycles delta) = 0;
    /// @}

    /// @name Kernel entries and scheduling
    /// @{
    /** One user->kernel->user syscall edge (entry + exit cost only). */
    virtual void syscallEdge() = 0;

    /** The MMU part of a context switch (table base + ASID / CR3). */
    virtual void contextSwitchMmu() = 0;

    /** Reschedule IPI to the other core (SGI / APIC ICR). */
    virtual void sendRescheduleIpi(unsigned target_idx) = 0;

    /** Enter the idle loop until an interrupt arrives (WFI / HLT). */
    virtual void idle() = 0;
    /// @}

    /// @name Memory management
    /// @{
    /** User touch of a never-mapped page: Stage-1 demand fault, plus the
     *  Stage-2/EPT fault if the backing is cold. */
    virtual void demandFault() = 0;

    /** User write to a read-only page: protection fault + signal. */
    virtual void protFault() = 0;

    /** Page-table setup work for @p pages pages (fork/exec): real table
     *  walks and writes, so the VM case pays nested-walk costs. */
    virtual void ptSetup(unsigned pages) = 0;

    /**
     * Flush remote TLBs after an unmap/protect. ARM broadcasts TLB
     * invalidations in hardware (TLBIMVAIS); x86 must interrupt the other
     * core and wait for its acknowledgment — a real IPI in this model,
     * which is trapping-expensive inside a VM.
     */
    virtual void tlbShootdown(bool smp) = 0;
    /// @}

    /// @name Device I/O (kick/complete model devices)
    /// @{
    /** Ring the doorbell of device @p slot for an @p nbytes operation. */
    virtual void devKick(unsigned slot, Addr nbytes) = 0;

    /** Completion interrupts received so far for @p slot. */
    virtual std::uint64_t devCompletions(unsigned slot) const = 0;
    /// @}

    /// @name Interrupt accounting
    /// @{
    virtual std::uint64_t ipisReceived() const = 0;
    virtual std::uint64_t timerIrqsReceived() const = 0;
    /// @}

    /** Set by the harness once this CPU's body has returned: it takes no
     *  more interrupts, so no other CPU may wait for its handlers. */
    bool offline = false;
};

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_SYSPORT_HH
