/**
 * @file
 * Cycle costs of the modelled x86 machines. Two calibrations ship, for the
 * paper's two testbeds: the 2011 MacBook Air (dual 1.8 GHz i7-2677M) and
 * the OVH SP3 server (dual 3.4 GHz Xeon E3-1245v2). Constants are chosen
 * so the literally-executed Table 3 paths land near the paper's
 * measurements; the Calibration claims of src/workload/claims.cc pin them.
 */

#ifndef KVMARM_X86_COST_HH
#define KVMARM_X86_COST_HH

#include "sim/types.hh"

namespace kvmarm::x86 {

/** Cycle cost model of one x86 machine. */
struct X86CostModel
{
    /**
     * One-way hardware VMX transition: the CPU saves/loads the entire
     * VMCS state area with a single instruction (paper §2) — far more
     * state than an ARM Hyp trap banks, hence Table 3's Trap being ~25x
     * ARM's, but the *software* need not move any registers.
     */
    Cycles vmexitHw = 316;
    Cycles vmentryHw = 316;

    /** Kernel-mode exception entry/exit (interrupt gate). */
    Cycles kernelEntry = 120;
    Cycles kernelEret = 90;

    /** KVM's vmexit dispatch (exit-reason decode, run-loop bookkeeping). */
    Cycles exitDispatch = 700;

    /** Software instruction decode + emulate for MMIO exits: x86 KVM runs
     *  a full instruction emulator (paper §5.3 reason 3). */
    Cycles mmioDecode = 1000;

    /** In-kernel MMIO fault processing (kvm_io_bus etc.). */
    Cycles mmioDispatch = 540;

    /** Kernel->user and user->kernel on the KVM_RUN boundary; "x86 KVM
     *  saves and restores additional state lazily when going to user
     *  space" (paper §5.2), making this much costlier than ARM's. */
    Cycles kernelToUser = 3400;
    Cycles userToKernel = 3600;
    Cycles qemuMmioWork = 800;

    /** In-kernel APIC emulation work per trapped access. */
    Cycles apicEmulate = 640;

    /** Event injection via the VMCS on vmentry (hardware assisted). */
    Cycles eventInject = 150;

    /** Physical IPI wire latency, ICR write to remote pin assertion. */
    Cycles ipiWire = 1800;

    /** KVM's software path for kicking a running VCPU out of guest mode
     *  and completing virtual IPI delivery (reschedule-IPI handler,
     *  irq routing, run-loop re-entry bookkeeping): with the wire, "the
     *  underlying hardware IPI on x86 is expensive" (paper §5.2). */
    Cycles kvmKickCost = 3920;

    /** Locking around the emulated APIC/ICR path. */
    Cycles atomicOp = 45;

    /** rdtsc: not privileged, never traps (paper §2). */
    Cycles rdtsc = 24;

    /** APIC MMIO access latency when accessed natively. */
    Cycles apicLatency = 90;
    Cycles uartLatency = 120;
    Cycles virtioLatency = 80;

    /** 4-level EPT walk on a TLB miss. */
    Cycles eptWalk = 160;
    /** Guest page walk without virtualization. */
    Cycles nativeWalk = 60;

    Cycles tlbFlush = 120;
};

/** Calibration for the paper's x86 laptop platform. */
X86CostModel laptopCosts();

/** Calibration for the paper's x86 server platform (same microarch family
 *  at a higher clock: transitions cost more cycles, paper Table 3). */
X86CostModel serverCosts();

} // namespace kvmarm::x86

#endif // KVMARM_X86_COST_HH
