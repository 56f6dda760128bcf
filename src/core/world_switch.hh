/**
 * @file
 * The world switch (paper §3.2): the explicit, software-performed exchange
 * of all Table 1 state between the host and a VM. ARM provides no hardware
 * save/restore (unlike x86's VMCS), so every step below is a real sequence
 * of register moves and MMIO accesses whose costs this simulator charges
 * — which is precisely why VGIC state dominates Table 3's hypercall cost.
 *
 * Runs entirely in Hyp mode; this is the bulk of the lowvisor.
 */

#ifndef KVMARM_CORE_WORLD_SWITCH_HH
#define KVMARM_CORE_WORLD_SWITCH_HH

#include <vector>

#include "arm/registers.hh"
#include "sim/types.hh"

namespace kvmarm::arm {
class ArmCpu;
} // namespace kvmarm::arm

namespace kvmarm::core {

class Kvm;
class VCpu;

/** Host-side context saved across a VM residence on one physical CPU. */
struct HostContext
{
    arm::RegisterFile regs;
    bool valid = false;
};

/** Performs the host<->VM state exchanges. */
class WorldSwitch
{
  public:
    explicit WorldSwitch(Kvm &kvm);

    /**
     * Host -> VM (the ten steps of §3.2): save host GP registers,
     * configure the VGIC and timers for the VM, swap configuration
     * registers, program the trap configuration and shadow IDs, enable
     * Stage-2 translation, restore guest GP registers. The caller (the
     * lowvisor) performs the final trap into guest mode.
     */
    void toVm(arm::ArmCpu &cpu, VCpu &vcpu);

    /**
     * VM -> host (the nine steps of §3.2): save guest GP registers,
     * disable Stage-2, clear traps, swap configuration registers back,
     * save the guest timer and VGIC state, restore host GP registers.
     */
    void toHost(arm::ArmCpu &cpu, VCpu &vcpu);

    HostContext &hostContext(CpuId cpu) { return hostCtx_.at(cpu); }

    /** Snapshot state (visited inside the lowvisor's record): the parked
     *  host contexts — stale once the per-CPU fibers unwound and compared
     *  by nothing, but restored verbatim for faithfulness. */
    template <class V>
    void
    visit(V &v)
    {
        v.fixed(hostCtx_, "host contexts");
        v.fixed(hostFpu_, "parked host FPU states");
    }

  private:
    void saveVgic(arm::ArmCpu &cpu, VCpu &vcpu);
    void restoreVgic(arm::ArmCpu &cpu, VCpu &vcpu);
    void switchFpuToVm(arm::ArmCpu &cpu, VCpu &vcpu);
    void switchFpuToHost(arm::ArmCpu &cpu, VCpu &vcpu);

    Kvm &kvm_;
    std::vector<HostContext> hostCtx_;
    /** Host VFP state parked while a guest's is on the hardware. */
    struct FpuPark
    {
        std::array<std::uint64_t, arm::kNumVfpDataRegs> vfp{};
        std::array<std::uint32_t, arm::kNumVfpCtrlRegs> vfpCtrl{};
    };
    std::vector<FpuPark> hostFpu_;

    friend class Lowvisor; // lazy FP trap handling switches FPU in Hyp
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_WORLD_SWITCH_HH
