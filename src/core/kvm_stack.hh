/**
 * @file
 * The KVM/ARM stack in the paper's one bring-up order (§4): the machine,
 * the host kernel booted in Hyp mode, then KVM, whose per-CPU init
 * installs the lowvisor through the boot stub.
 */

#ifndef KVMARM_CORE_KVM_STACK_HH
#define KVMARM_CORE_KVM_STACK_HH

#include <functional>

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"

namespace kvmarm::core {

/**
 * Machine, host kernel and KVM, constructed in that order, which is also
 * their snapshot registration order: a clone built as a KvmStack lines up
 * record for record with a snapshot of another. A clone calls
 * kvm.primeForRestore() instead of onCpu(). VM creation and machine.run()
 * are the caller's.
 */
class KvmStack
{
  public:
    struct Config
    {
        unsigned numCpus = 2;
        Addr ramSize = 512 * kMiB;
        /** The machine gets exactly the VGIC/vtimers this asks KVM to use. */
        KvmConfig kvm;
    };

    explicit KvmStack(Config config);

    /** CPU @p i's entry: host boot, KVM per-CPU init (fatal on failure),
     *  then @p body. */
    void onCpu(CpuId i, std::function<void(arm::ArmCpu &)> body);

    arm::ArmMachine machine;
    host::HostKernel host;
    Kvm kvm;
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_KVM_STACK_HH
