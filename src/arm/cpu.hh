/**
 * @file
 * The ARM CPU model. Simulated software (guest kernels, the host kernel,
 * the hypervisor) issues architectural operations through this class; the
 * CPU consults its mode, the Hyp trap configuration and the MMU to either
 * perform them — charging their native cost — or raise an exception.
 *
 * Exceptions are serviced *synchronously*: a trap calls the installed
 * Hyp-mode vectors (the lowvisor), which may world switch, run host and
 * user-space code inline, and world switch back before the trapped
 * operation resumes — the transparency property of full virtualization.
 */

#ifndef KVMARM_ARM_CPU_HH
#define KVMARM_ARM_CPU_HH

#include <array>
#include <cstdint>
#include <span>

#include "arm/hsr.hh"
#include "arm/hyp_state.hh"
#include "check/invariants.hh"
#include "arm/mmu.hh"
#include "arm/modes.hh"
#include "arm/registers.hh"
#include "arm/timer.hh"
#include "arm/vectors.hh"
#include "sim/cpu_base.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmMachine;

/** One Cortex-A15-class core. */
class ArmCpu : public CpuBase
{
  public:
    /** VA boundary between the TTBR0 (user) and TTBR1 (kernel) spaces
     *  when TTBCR enables the split: the familiar 3 GB / 1 GB layout. */
    static constexpr Addr kKernelSplit = 0xC0000000;

    ArmCpu(CpuId id, ArmMachine &machine);

    ArmMachine &machine();
    const ArmMachine &machine() const;

    /// @name Architectural state
    /// @{
    Mode mode() const { return mode_; }
    /** Set the current mode; legal only for PL1/PL2 software models and
     *  the world switch. */
    void
    setMode(Mode m)
    {
        KVMARM_CHECK_ON(checkEngine_,
                        modeChange(&armMachine_, id_, mode_, m, hyp_.hcr.vm));
        // HCR.VI may change only in Hyp mode, behind the closed gate;
        // outside it the SoftVirq pin set at the last mode change holds.
        if (mode_ != Mode::Hyp && irqPin(kPinSoftVirq) != hyp_.hcr.vi)
            panic("cpu%u: HCR.VI written outside Hyp mode", id_);
        mode_ = m;
        refreshModePins();
    }

    /**
     * The CPU's interrupt pins (CpuBase::setIrqPin). The GIC CPU interface
     * drives PhysIrq and the VGIC's GICH drives VirtIrq whenever their
     * line levels change; SoftVirq mirrors HCR.VI (see refreshModePins()).
     */
    enum IrqPin : unsigned
    {
        kPinPhysIrq = 0,
        kPinVirtIrq = 1,
        kPinSoftVirq = 2,
    };

    RegisterFile &regs() { return regs_; }
    const RegisterFile &regs() const { return regs_; }

    /** Raw Hyp configuration state: hardware consulting (or tests
     *  arranging) its own state. Software models must use hypSys(). */
    HypState &hyp() { return hyp_; }
    const HypState &hyp() const { return hyp_; }

    /** Hyp configuration state accessed *as software* (an MRC/MCR to the
     *  virtualization-extension registers): raises the privilege
     *  invariant hook, which flags any access outside Hyp mode. */
    HypState &
    hypSys(const char *reg)
    {
        KVMARM_CHECK_ON(checkEngine_, hypAccess(id_, mode_, reg));
        return hyp_;
    }

    Mmu &mmu() { return mmu_; }

    bool irqMasked() const { return irqMasked_; }
    void setIrqMasked(bool m) { irqMasked_ = m; }
    /// @}

    /// @name Software vectors
    /// @{
    void setHypVectors(HypVectors *v) { hypVectors_ = v; }
    HypVectors *hypVectors() { return hypVectors_; }
    void setOsVectors(OsVectors *v) { osVectors_ = v; }
    OsVectors *osVectors() { return osVectors_; }
    /// @}

    /// @name Operations issued by simulated software
    /// @{
    /** Execute for @p c cycles without architectural side effects. */
    void compute(Cycles c) { addCycles(c); }

    /** Load through the MMU; Stage-2 faults trap to Hyp (and may be
     *  completed by MMIO emulation), Stage-1 faults go to the current
     *  kernel. @p isv models whether the instruction populates the MMIO
     *  syndrome (paper §4). A load whose bytes cross a page is two loads,
     *  one per page, each translated, faulted and charged on its own. */
    std::uint64_t memRead(Addr va, unsigned len = 4, bool isv = true);

    /** Store through the MMU (same fault and page-crossing behaviour as
     *  memRead). */
    void memWrite(Addr va, std::uint64_t value, unsigned len = 4,
                  bool isv = true);

    /** Touch @p va (translate + fault handling) as a 4-byte load, or as
     *  a 4-byte store of zero for Access::Write. */
    void memTouch(Addr va, Access acc);

    /**
     * Register burst: one 32-bit access to @p base + @p offsets[i] for
     * each i, in order, all stores (@p write; @p values holds the words)
     * or all loads (@p values receives them). Simulated behaviour is
     * exactly that of the same memWrite()/memRead() sequence; only the
     * host cost differs. The lowvisor moves the GICH state this way.
     *
     * When the first register's TLB slot holds a device view (DESIGN.md
     * §4.6, "TLB slot views"), every register falls in that page and
     * region, and the whole burst's charge is quiet
     * (CpuBase::chargeIsQuiet(): closed gate, no event, no yield), the
     * burst goes to the device in one MmioDevice::accessBurst() and is
     * charged as one addCycles(), with one TLB hit per register: each
     * memRead()/memWrite() would have hit that slot, called the device
     * and charged its latency, and no charge could have run anything in
     * between. Otherwise every register goes through
     * memRead()/memWrite().
     */
    void regBurst(Addr base, std::span<const Addr> offsets,
                  std::span<std::uint32_t> values, bool write);

    /** Supervisor call from user mode into the current kernel. */
    void svc(std::uint32_t num);

    /** Hypercall from kernel mode into Hyp mode. */
    void hvc(std::uint32_t imm);

    /** Secure monitor call; trapped when HCR.TSC is set. */
    void smc();

    /** Wait for interrupt: trapped in VMs (HCR.TWI), idles natively. */
    void wfi();

    /** A VFP/NEON operation of @p c cycles; traps when lazy FP switching
     *  has FP disabled (HCPTR). */
    void fpOp(Cycles c);

    /** Access a sensitive register/instruction (Table 1's
     *  trap-and-emulate group). Returns the read value for reads. */
    std::uint32_t sensitiveOp(SensitiveOp op, std::uint32_t value = 0);

    /** Read the physical counter; PL1 access is gated by CNTHCTL. */
    std::uint64_t readCntpct();

    /** Read the virtual counter (CNTVCT); never traps when the hardware
     *  has virtual timer support. */
    std::uint64_t readCntvct();

    TimerRegs readPhysTimer();
    void writePhysTimer(const TimerRegs &regs);
    TimerRegs readVirtTimer();
    void writeVirtTimer(const TimerRegs &regs);

    /** Program CNTVOFF; Hyp mode only. */
    void writeCntvoff(std::uint64_t off);

    /** Context-switched CP15 registers (no traps, Table 1 top group). */
    std::uint32_t readCp15(CtrlReg r);
    void writeCp15(CtrlReg r, std::uint32_t v);
    void writeCp15_64(CtrlReg lo, CtrlReg hi, std::uint64_t v);

    /** TLB invalidate-all for the current translation regime. */
    void tlbiAll();

    /** TLB invalidate by VA (TLBIMVA). */
    void tlbiVa(Addr va);
    /// @}

    /// @name Trap plumbing
    /// @{
    /** Take a synchronous trap into Hyp mode (also used by tests). */
    void trapToHyp(const Hsr &hsr);

    /** Complete a trapped MMIO access with emulation: the faulting
     *  load/store does not retry; loads return @p value. */
    void completeMmio(std::uint64_t value = 0);

    /**
     * Choose the mode/mask the ERET at the end of the current Hyp trap
     * returns to (hardware: the handler writes SPSR_hyp). The world switch
     * uses this to land in the other world. Defaults to the trapped-from
     * state.
     */
    void
    setHypReturn(Mode m, bool irq_masked)
    {
        hypReturnMode_ = m;
        hypReturnMask_ = irq_masked;
    }

    /** Mode the current Hyp trap came from (SPSR_hyp.M). */
    Mode hypTrappedMode() const { return hypTrappedMode_; }
    bool hypTrappedIrqMask() const { return hypTrappedMask_; }

    /** Provide the result of a trapped system-register read. */
    void setTrappedReadValue(std::uint64_t v) { trappedReadValue_ = v; }
    /// @}

    /// @name CpuBase
    /// @{
    bool interruptPending() const override;
    void serviceInterrupts() override;
    /// @}

    /// @name Snapshottable (extends CpuBase with the ARM register state)
    ///
    /// Direct member access, not setMode()/hypSys(): a restore is the
    /// host materializing hardware state, not simulated software accessing
    /// it, so no privilege/mode-change invariant events fire. Software
    /// vectors (hypVectors_/osVectors_) are raw pointers into the host
    /// kernel and hypervisor objects; their owners reinstall them in their
    /// own snapshotRebind passes.
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        CpuBase::visit(v);
        v.pod(mode_, irqMasked_, regs_, hyp_, mmioPending_, mmioValue_,
              trappedReadValue_, inIrqService_, interruptsTaken_,
              hypReturnMode_, hypReturnMask_, hypTrappedMode_,
              hypTrappedMask_, actlr, l2ctlr, l2ectlr, cp14Dbg);
        mmu_.visit(v);
        if constexpr (V::kLoading)
            refreshModePins();
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

    /// @name Implementation-defined hardware registers (ACTLR group)
    /// @{
    std::uint32_t actlr = 0x00000041;
    std::uint32_t l2ctlr = 0x02020000;
    std::uint32_t l2ectlr = 0;
    std::uint32_t cp14Dbg = 0;
    /// @}

  private:
    /**
     * Re-derive the SoftVirq pin and the interrupt gate from the mode.
     * Nothing is deliverable in Hyp mode, so the gate is closed there.
     * HCR.VI is written only in Hyp mode (hypSys()), behind the closed
     * gate, so a mode change is the one point where its pin can need an
     * update before it matters.
     */
    void
    refreshModePins()
    {
        setIrqPin(kPinSoftVirq, hyp_.hcr.vi);
        setIrqGate(mode_ != Mode::Hyp);
    }

    /** The virtual IRQ line PL0/PL1 sees: the VGIC's, when the hardware
     *  has one, or HCR.VI. */
    bool virtIrqLineHigh() const;

    /** regBurst() in one MmioDevice::accessBurst() and one charge, when
     *  its rules allow; false, having done nothing, otherwise. */
    bool burstRest(Addr base, std::span<const Addr> offsets,
                   std::span<std::uint32_t> values, bool write);

    void takeIrqToKernel();
    bool takePageFaultToKernel(Addr va, bool write, Access acc);
    /** One access that stays in a page, through its TLB slot's view when
     *  Mmu::slotView() gives one, else the full path. */
    std::uint64_t accessPage(Addr va, bool write, std::uint64_t value,
                             unsigned len, bool isv);
    /** The full path of accessPage(); @p probe is Mmu::slotView()'s set
     *  scan for this access, if it made one. */
    std::uint64_t accessMem(Addr va, bool write, std::uint64_t value,
                            unsigned len, bool isv, const Tlb::Probe *probe);

    ArmMachine &armMachine_;
    /** The owning machine's invariant engine (null when the check layer is
     *  compiled out), cached so the inline hooks above cost one pointer
     *  load + branch without needing the complete ArmMachine type. */
    check::InvariantEngine *checkEngine_;
    Mode mode_ = Mode::Svc;
    bool irqMasked_ = true; //!< CPSR.I; kernels unmask after boot
    RegisterFile regs_;
    HypState hyp_;
    Mmu mmu_;
    HypVectors *hypVectors_ = nullptr;
    OsVectors *osVectors_ = nullptr;

    bool mmioPending_ = false;
    std::uint64_t mmioValue_ = 0;
    std::uint64_t trappedReadValue_ = 0;

    bool inIrqService_ = false;
    std::uint64_t interruptsTaken_ = 0;
    Mode hypReturnMode_ = Mode::Svc;
    bool hypReturnMask_ = false;
    Mode hypTrappedMode_ = Mode::Svc;
    bool hypTrappedMask_ = false;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_CPU_HH
