/**
 * @file
 * Per-operation cycle costs of the modelled Cortex-A15 class machine.
 *
 * Calibration: constants are chosen so that the code paths of the paper's
 * Table 3 micro-benchmarks — which this simulator executes literally, step
 * by step — land near the paper's measured cycle counts on the Arndale
 * board (dual Cortex-A15, 1.7 GHz). The constants themselves are plausible
 * per-operation latencies for that microarchitecture; the *composition* is
 * what the simulation computes. The Calibration claims (workload/claims.cc)
 * pin the resulting totals to the paper within a tolerance.
 */

#ifndef KVMARM_ARM_COST_HH
#define KVMARM_ARM_COST_HH

#include "sim/types.hh"

namespace kvmarm::arm {

/** Cycle cost model for one ARM machine. */
struct ArmCostModel
{
    /// @name Mode changes and traps
    /// @{
    /** Hardware cost of taking an exception into Hyp mode. Table 3 "Trap"
     *  = hypTrapEntry + hypEret = 27: ARM only banks a couple of registers
     *  on a Hyp trap, no state is saved automatically (paper §2). */
    Cycles hypTrapEntry = 13;
    Cycles hypEret = 14;

    /** Exception entry to a PL1 mode (SVC/IRQ/ABT) and return. */
    Cycles kernelEntry = 45;
    Cycles kernelEret = 35;
    /// @}

    /// @name Register movement
    /// @{
    Cycles gpRegSave = 2;      //!< per GP register, to/from cached stack
    Cycles ctrlRegAccess = 11; //!< CP15 system register read or write
    Cycles vfpRegAccess = 3;   //!< per 64-bit VFP register
    /// @}

    /// @name MMU
    /// @{
    Cycles tlbFlush = 90;
    Cycles walkPerLevel = 8;       //!< walker overhead per level (plus RAM)
    Cycles stage2Serialize = 50;   //!< ISB/DSB around VTTBR/HCR.VM changes
    /// @}

    /// @name Interconnect and synchronization
    /// @{
    Cycles ipiWire = 1100; //!< GIC SGI wire latency core-to-core
    Cycles atomicOp = 40;  //!< contended ldrex/strex pair (the "unnecessary
                           //!< atomic operations" of §5.2 cost ~300/call)
    /// @}

    /// @name Device MMIO latencies (charged via Bus::accessLatency)
    /// @{
    Cycles gicdLatency = 65;  //!< distributor
    Cycles giccLatency = 140; //!< physical CPU interface
    Cycles gicvLatency = 213; //!< virtual CPU interface (EOI+ACK = 2
                              //!< accesses + issue ≈ Table 3 ARM EOI+ACK)
    Cycles gichLatency = 73;  //!< hyp control interface; the unoptimized
                              //!< world switch moves 20 registers each
                              //!< direction (§3.5), making VGIC state >50%
                              //!< of hypercall cost (Table 3)
    Cycles uartLatency = 120;
    Cycles virtioLatency = 80;
    /// @}
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_COST_HH
