/**
 * @file
 * The virtual distributor (paper §3.5): a software model of the GIC
 * distributor living in the highvisor. Guest distributor accesses trap
 * here; it keeps per-interrupt software state and, whenever a VM is
 * scheduled, programs the hardware list registers to inject pending
 * virtual interrupts. The state and register decoder are the same GICv2
 * model the physical distributor uses (arm/gic_dist), one bank per VCPU;
 * this class adds what the highvisor pays and does around it: the
 * distributor lock, VCPU kicks, list-register flush/sync and the software
 * CPU interface of the no-VGIC configuration.
 */

#ifndef KVMARM_CORE_VGIC_EMUL_HH
#define KVMARM_CORE_VGIC_EMUL_HH

#include <cstdint>
#include <vector>

#include "arm/gic_dist.hh"
#include "arm/vgic.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {
class ArmCpu;
} // namespace kvmarm::arm

namespace kvmarm::core {

class Vm;
class VCpu;

/** Software GIC distributor state for one VM. */
class VgicDistEmul : public Snapshottable
{
  public:
    explicit VgicDistEmul(Vm &vm);

    /** Give the VM's newest VCPU (of @p nvcpus) its bank. */
    void addVcpu(unsigned nvcpus);

    /// @name Guest MMIO emulation (in-kernel, reached via Stage-2 traps)
    /// @{
    std::uint64_t handleMmio(arm::ArmCpu &cpu, VCpu &vcpu, Addr offset,
                             bool is_write, std::uint64_t value,
                             unsigned len);
    /// @}

    /// @name Injection
    /// @{
    /** Inject a shared interrupt (KVM_IRQ_LINE path from user space). */
    void injectSpi(arm::ArmCpu &current_cpu, IrqId irq);

    /** Inject a private interrupt to a specific VCPU (virtual timer). */
    void injectPpi(arm::ArmCpu &current_cpu, VCpu &target, IrqId ppi);
    /// @}

    /// @name World-switch integration
    /// @{
    /** Move software-pending interrupts into the VCPU's shadow list
     *  registers (runs when the VCPU is scheduled in). */
    void flushToShadow(VCpu &vcpu);

    /** Digest the shadow list registers after a world switch out: EOIed
     *  slots free their interrupt, still-pending ones return to software
     *  state. */
    void syncFromShadow(VCpu &vcpu);

    /** True if @p vcpu has deliverable interrupts (wake condition for
     *  WFI-blocked VCPUs). */
    bool hasPendingFor(const VCpu &vcpu) const;
    /// @}

    /** Best deliverable software-pending interrupt for @p vcpu, spurious
     *  if none or the distributor is disabled. */
    arm::PendingIrq bestPending(const VCpu &vcpu) const;

    /// @name Software CPU-interface emulation (no-VGIC configuration)
    /// @{
    /** Emulated IAR read: acknowledge the best pending interrupt. */
    std::uint32_t softAck(VCpu &vcpu);

    /** Emulated EOIR write. */
    void softEoi(VCpu &vcpu, std::uint32_t value);
    /// @}

    /** Cycles charged per emulated distributor access for the software
     *  locking the emulation needs (paper §6). */
    Cycles lockCost() const;

    /// @name Snapshottable
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        state_.visit(v);
        v.seq(softActive_);
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

  private:
    void writeSgir(arm::ArmCpu &cpu, VCpu &sender, std::uint32_t value);
    void kickVcpu(arm::ArmCpu &current_cpu, VCpu &target);

    /** Acked-but-not-EOIed interrupts of one VCPU's software CPU
     *  interface (no-VGIC mode), innermost last. */
    struct SoftActive
    {
        std::vector<IrqId> irqs;

        template <class V>
        void
        visit(V &v)
        {
            v.seq(irqs);
        }
    };

    Vm &vm_;
    arm::GicDistState state_; //!< one bank per VCPU
    std::vector<SoftActive> softActive_; //!< per VCPU

    /** Recompute the software-injection pending flag (no-VGIC mode). */
    void updateSoftPending(VCpu &vcpu);
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_VGIC_EMUL_HH
