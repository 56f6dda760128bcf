/**
 * @file
 * The virtual distributor (paper §3.5): a software model of the GIC
 * distributor living in the highvisor. Guest distributor accesses trap
 * here; it keeps per-interrupt software state and, whenever a VM is
 * scheduled, programs the hardware list registers to inject pending
 * virtual interrupts.
 */

#ifndef KVMARM_CORE_VGIC_EMUL_HH
#define KVMARM_CORE_VGIC_EMUL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arm/gic.hh"
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
        v.pod(ctlrEnabled_, spiEnabled_, spiPending_, spiPriority_,
              spiTargets_);
        v.seq(banks_);
        if constexpr (V::kLoading)
            live_.rebuild(banks_, spiPending_, spiEnabled_, spiTargets_);
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

  private:
    void writeSgir(arm::ArmCpu &cpu, VCpu &sender, std::uint32_t value);
    void setSgiPending(unsigned target_idx, IrqId sgi, unsigned source_idx);
    void kickVcpu(arm::ArmCpu &current_cpu, VCpu &target);
    unsigned routeSpi(IrqId irq) const;

    Vm &vm_;
    bool ctlrEnabled_ = false;

    // Shared SPI state.
    std::array<bool, arm::kMaxIrqs> spiEnabled_{};
    std::array<bool, arm::kMaxIrqs> spiPending_{};
    std::array<std::uint8_t, arm::kMaxIrqs> spiPriority_{};
    std::array<std::uint8_t, arm::kMaxIrqs> spiTargets_{};

    // Banked SGI/PPI state, one bank per VCPU.
    struct Bank
    {
        Bank() { priority.fill(0xA0); }
        std::array<std::uint16_t, arm::kNumSgis> sgiSources{};
        std::array<bool, 32> ppiPending{};
        std::array<bool, 32> enabled{};
        std::array<std::uint8_t, 32> priority{};
        /** Acked-but-not-EOIed interrupts of the software CPU-interface
         *  emulation (no-VGIC mode). */
        std::vector<IrqId> softActive;

        template <class V>
        void
        visit(V &v)
        {
            v.pod(sgiSources, ppiPending, enabled, priority);
            v.seq(softActive);
        }
    };
    std::vector<Bank> banks_;

    /** Pending∧enabled bits and SPI routes derived from the arrays above,
     *  one bank per entry of banks_; not serialized. */
    arm::PendingSet live_;

    /** Bank @p idx, growing banks_ (and live_) to hold it. */
    Bank &bankAt(unsigned idx);
    Bank &bankFor(const VCpu &vcpu);
    const Bank &bankFor(const VCpu &vcpu) const;

    /** Re-derive the live bit of @p irq (for an SGI/PPI, in bank
     *  @p idx). */
    void syncLive(unsigned idx, IrqId irq);

    /** Remove @p c from the software pending state. */
    void consume(VCpu &vcpu, const arm::PendingIrq &c);

    /** Recompute the software-injection pending flag (no-VGIC mode). */
    void updateSoftPending(VCpu &vcpu);
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_VGIC_EMUL_HH
