/**
 * @file
 * The KVM x86 stack in its one bring-up order, the x86 twin of
 * core::KvmStack: the machine, the host kernel, then KVM, whose per-CPU
 * init makes it the CPU's VMX exit handler.
 */

#ifndef KVMARM_KVMX86_KVM_X86_STACK_HH
#define KVMARM_KVMX86_KVM_X86_STACK_HH

#include <functional>

#include "kvmx86/host_x86.hh"
#include "kvmx86/kvm_x86.hh"
#include "x86/machine.hh"

namespace kvmarm::kvmx86 {

/**
 * Machine, host kernel and KVM x86, constructed in that order. VM
 * creation and machine.run() are the caller's.
 */
class KvmX86Stack
{
  public:
    using Config = x86::X86Machine::Config;

    explicit KvmX86Stack(const Config &config);

    /** CPU @p i's entry: host boot, KVM per-CPU init, then @p body. */
    void onCpu(CpuId i, std::function<void(x86::X86Cpu &)> body);

    x86::X86Machine machine;
    X86Host host;
    KvmX86 kvm;
};

} // namespace kvmarm::kvmx86

#endif // KVMARM_KVMX86_KVM_X86_STACK_HH
