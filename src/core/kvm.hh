/**
 * @file
 * Top-level KVM/ARM module: initialization (the boot-in-Hyp-mode protocol
 * of paper §4, per-CPU Hyp setup) and VM creation. The public entry point
 * of the library's core.
 */

#ifndef KVMARM_CORE_KVM_HH
#define KVMARM_CORE_KVM_HH

#include <memory>
#include <vector>

#include "core/highvisor.hh"
#include "core/hyp_mem.hh"
#include "core/lowvisor.hh"
#include "core/types.hh"
#include "core/vm.hh"
#include "core/vtimer.hh"
#include "host/kernel.hh"
#include "sim/snapshot.hh"

namespace kvmarm::core {

/** The KVM/ARM hypervisor module loaded into a host kernel. */
class Kvm : public Snapshottable
{
  public:
    /** @param config Requested features are clamped to what the machine's
     *  hardware provides (no VGIC hardware -> no VGIC use). */
    Kvm(host::HostKernel &host, const KvmConfig &config);
    Kvm(host::HostKernel &host) : Kvm(host, KvmConfig{}) {}

    /**
     * Per-CPU initialization, run on each booted CPU: builds the Hyp page
     * tables (once), installs the lowvisor as the runtime Hyp vectors via
     * the boot stub, and registers the host IRQ handlers KVM needs.
     *
     * @return false if Hyp mode is unavailable (kernel not booted in Hyp
     *         mode) — KVM/ARM then remains disabled, paper §4.
     */
    bool initCpu(arm::ArmCpu &cpu);

    /** True once initCpu succeeded somewhere. */
    bool enabled() const { return enabled_; }

    /** Create a VM with @p guest_ram_size of RAM. */
    std::unique_ptr<Vm> createVm(Addr guest_ram_size);

    host::HostKernel &host() { return host_; }
    arm::ArmMachine &machine() { return host_.machine(); }
    const KvmConfig &config() const { return config_; }
    Lowvisor &lowvisor() { return lowvisor_; }
    Highvisor &highvisor() { return highvisor_; }
    VTimerEmul &vtimer() { return vtimer_; }
    HypMem &hypMem() { return hypMem_; }

    /** SGI the host uses to kick a remote VCPU out of guest mode. */
    static constexpr IrqId kKickSgi = 1;

    /// @name VM registry
    ///
    /// Live VMs, in creation order. Lets snapshot rebind passes resolve a
    /// (vmid, vcpu index) pair back to an object — VM-keyed state (e.g.
    /// armed virtual-timer soft timers) is serialized by id, never by
    /// pointer. Vm's constructor/destructor maintain the registry.
    /// @{
    void registerVm(Vm *vm) { vms_.push_back(vm); }
    void unregisterVm(Vm *vm);
    Vm *findVm(std::uint16_t vmid);
    /// @}

    /**
     * Clone-construction priming: mark KVM enabled so createVm() can run
     * on a machine that never booted. A clone rebuilds its VM skeletons
     * first and then adopts all hypervisor state from the snapshot via
     * MachineBase::restoreSnapshot(), so per-CPU init never executes.
     */
    void primeForRestore() { enabled_ = true; }

    /// @name Snapshottable
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        if constexpr (!V::kLoading) {
            for (CpuId i = 0; i < lowvisorOnCpu_.size(); ++i)
                lowvisorOnCpu_[i] =
                    machine().cpu(i).hypVectors() == &lowvisor_;
        }
        v.pod(enabled_, irqHandlersRegistered_, nextVmid_);
        v.fixed(lowvisorOnCpu_, "CPUs");
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /** Re-register host IRQ handlers and reinstall the lowvisor as the
     *  Hyp vectors on the CPUs that had it installed at snapshot time. */
    void snapshotRebind() override;
    /// @}

  private:
    void registerHostIrqHandlers();

    host::HostKernel &host_;
    KvmConfig config_;
    HypMem hypMem_;
    Lowvisor lowvisor_;
    Highvisor highvisor_;
    VTimerEmul vtimer_;
    bool enabled_ = false;
    bool irqHandlersRegistered_ = false;
    std::uint16_t nextVmid_ = 1;
    std::vector<Vm *> vms_;

    /** Snapshot-only, per CPU: the lowvisor is the installed Hyp vectors
     *  (captured at save, consumed by snapshotRebind()). */
    std::vector<std::uint8_t> lowvisorOnCpu_;
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_KVM_HH
