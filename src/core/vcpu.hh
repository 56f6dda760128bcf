/**
 * @file
 * A virtual CPU: the complete guest-visible CPU context (Table 1's
 * context-switched state), trap-and-emulate shadow state, run control, and
 * the user-space register access API (GET/SET_ONE_REG) used for debugging
 * and VM migration (paper §4).
 */

#ifndef KVMARM_CORE_VCPU_HH
#define KVMARM_CORE_VCPU_HH

#include <array>
#include <functional>

#include "arm/hsr.hh"
#include "arm/modes.hh"
#include "arm/registers.hh"
#include "arm/timer.hh"
#include "arm/vectors.hh"
#include "arm/vgic.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace kvmarm::arm {
class ArmCpu;
} // namespace kvmarm::arm

namespace kvmarm::core {

class Vm;

/** exit.<ec>: a VCPU's count of guest exits, indexed by ExcClass. */
inline constexpr auto kExitStats =
    statFamily<arm::kNumExcClasses>("exit.", [](std::size_t i) {
        return arm::excClassName(static_cast<arm::ExcClass>(i));
    });

/** Serializable VCPU state, the unit of user-space save/restore. */
struct VcpuState
{
    arm::RegisterFile regs;
    arm::Mode mode = arm::Mode::Svc;
    bool irqMasked = true;
    arm::VgicBank vgic;
    arm::TimerRegs vtimer;
    std::uint64_t vtimerOffsetTicks = 0; //!< CNTVCT at save time
    std::uint32_t shadowActlr = 0;
    std::uint32_t shadowCp14 = 0;

    bool operator==(const VcpuState &) const = default;
};

/** One virtual CPU, pinned 1:1 to a physical CPU. */
class VCpu : public Snapshottable
{
  public:
    VCpu(Vm &vm, unsigned index, CpuId phys_cpu);

    Vm &vm() { return vm_; }
    unsigned index() const { return index_; }
    CpuId physCpu() const { return physCpu_; }

    /// @name Guest context (world-switched)
    /// @{
    arm::RegisterFile regs;
    arm::Mode guestMode = arm::Mode::Svc;
    bool guestIrqMasked = true;
    arm::OsVectors *guestOs = nullptr;
    arm::VgicBank vgicShadow;
    arm::TimerRegs vtimerShadow;
    std::uint64_t cntvoff = 0;
    bool fpuLoaded = false; //!< guest VFP state is on the hardware
    /// @}

    /// @name Trap-and-emulate shadow state (Table 1 bottom group)
    /// @{
    std::uint32_t shadowActlr = 0x00000041;
    std::uint32_t shadowCp14 = 0;
    /// @}

    /// @name Run control
    /// @{
    bool blocked = false;       //!< parked in WFI emulation
    bool kicked = false;        //!< wake request from another thread
    bool stopRequested = false; //!< PSCI SYSTEM_OFF observed
    /// @}

    /** Hardware list registers currently hold live state (lazy-VGIC
     *  bookkeeping). */
    bool vgicHwLive = false;

    /** Deliverable virtual interrupt exists in the software-emulated GIC
     *  (no-VGIC configuration); mirrored into HCR.VI on VM entry. */
    bool softVirqPending = false;

    /** Set the guest kernel that receives this VCPU's PL1 exceptions. */
    void setGuestOs(arm::OsVectors *os) { guestOs = os; }

    /**
     * KVM_RUN: world switch in, execute @p guest_main as the guest (every
     * trap world-switches to the highvisor and back inline), world switch
     * out when it returns. Must be called on this VCPU's physical CPU.
     */
    void run(arm::ArmCpu &cpu,
             const std::function<void(arm::ArmCpu &)> &guest_main);

    /// @name User-space state access (GET_ONE_REG/SET_ONE_REG-shaped)
    /// @{
    std::uint32_t getOneReg(arm::GpReg r) const { return regs[r]; }
    void setOneReg(arm::GpReg r, std::uint32_t v) { regs[r] = v; }
    std::uint32_t getOneReg(arm::CtrlReg r) const { return regs[r]; }
    void setOneReg(arm::CtrlReg r, std::uint32_t v) { regs[r] = v; }

    /** Snapshot everything user space may save (migration source side). */
    VcpuState saveState(arm::ArmCpu &cpu) const;

    /** Restore a snapshot (migration destination side). */
    void restoreState(arm::ArmCpu &cpu, const VcpuState &state);
    /// @}

    /** Per-VCPU statistics: exit counts by reason, residency cycles. */
    StatGroup stats;

    /// @name Snapshottable (machine-level, for whole-machine clone)
    ///
    /// Serializes the full guest context plus run-control flags and the
    /// per-VCPU stats (a flat StatGroup: a restore brings back the
    /// origin's values and the set of counters its dump lists) —
    /// distinct from the user-space VcpuState facade above, which
    /// models only what GET_ONE_REG-era migration moves.
    /// The guest OS pointer is harness-owned and saved as presence only;
    /// a clone must setGuestOs() before restoring if one was installed.
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        bool has_guest_os = guestOs != nullptr;
        v.pod(has_guest_os, regs, guestMode, guestIrqMasked, vgicShadow,
              vtimerShadow, cntvoff, fpuLoaded, shadowActlr, shadowCp14,
              blocked, kicked, stopRequested, vgicHwLive, softVirqPending,
              stats);
        if constexpr (V::kLoading) {
            if (has_guest_os && !guestOs)
                fatal("%s: snapshot had a guest OS installed — "
                      "setGuestOs() before restoring",
                      snapshotKey().c_str());
        }
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

  private:
    Vm &vm_;
    unsigned index_;
    CpuId physCpu_;
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_VCPU_HH
