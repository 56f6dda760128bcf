/**
 * @file
 * The lowvisor (paper §3.1): the only KVM/ARM component running in Hyp
 * mode. Three jobs: configure the execution context, perform world
 * switches, and field every trap — doing the minimal amount of work before
 * deferring to the highvisor in kernel mode. Split-mode virtualization's
 * double trap is visible here: a guest trap enters Hyp, world switches to
 * the host, and re-entering the guest requires trapping into Hyp again.
 */

#ifndef KVMARM_CORE_LOWVISOR_HH
#define KVMARM_CORE_LOWVISOR_HH

#include <algorithm>
#include <vector>

#include "arm/vectors.hh"
#include "core/world_switch.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::core {

class Kvm;
class VCpu;

/** Hyp-mode exception vectors of KVM/ARM. */
class Lowvisor : public arm::HypVectors, public Snapshottable
{
  public:
    explicit Lowvisor(Kvm &kvm);

    /** The VCPU resident (running or handling an exit) on @p cpu. */
    VCpu *running(CpuId cpu) { return running_.at(cpu); }

    /** Arm the next kHvcRunVcpu on @p cpu to enter @p vcpu. */
    void queueEnter(CpuId cpu, VCpu *vcpu) { pendingEnter_.at(cpu) = vcpu; }

    WorldSwitch &worldSwitch() { return ws_; }

    /// @name arm::HypVectors
    /// @{
    void hypTrap(arm::ArmCpu &cpu, const arm::Hsr &hsr) override;
    const char *name() const override { return "kvm-lowvisor"; }
    /// @}

    /// @name Snapshottable (covers WorldSwitch too)
    ///
    /// Snapshots only exist at quiescence: saving is fatal if any VCPU is
    /// resident or queued to enter, so running_/pendingEnter_ are
    /// serialized implicitly as all-null.
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        if constexpr (!V::kLoading)
            checkQuiesced();
        ws_.visit(v);
        if constexpr (V::kLoading) {
            std::fill(running_.begin(), running_.end(), nullptr);
            std::fill(pendingEnter_.begin(), pendingEnter_.end(), nullptr);
        }
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

  private:
    void checkQuiesced() const;
    void enterVm(arm::ArmCpu &cpu, VCpu &vcpu);
    void exitToHost(arm::ArmCpu &cpu, VCpu &vcpu);
    void guestTrap(arm::ArmCpu &cpu, VCpu &vcpu, const arm::Hsr &hsr);
    void hostHvc(arm::ArmCpu &cpu, const arm::Hsr &hsr);

    Kvm &kvm_;
    WorldSwitch ws_;
    std::vector<VCpu *> running_;
    std::vector<VCpu *> pendingEnter_;
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_LOWVISOR_HH
