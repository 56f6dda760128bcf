/**
 * @file
 * A slim Linux-like host kernel for the x86 comparison machine. Unlike on
 * ARM, nothing is special here: the entire kernel runs in root mode with
 * its full feature set (paper §2), so no split, no stub, no Hyp page
 * tables — which is precisely the contrast the paper draws.
 */

#ifndef KVMARM_KVMX86_HOST_X86_HH
#define KVMARM_KVMX86_HOST_X86_HH

#include <array>
#include <functional>

#include "host/mm.hh"
#include "host/timers.hh"
#include "sim/function_ref.hh"
#include "x86/machine.hh"

namespace kvmarm::kvmx86 {

/** Host kernel services on the x86 machine. */
class X86Host : public x86::X86OsVectors
{
  public:
    explicit X86Host(x86::X86Machine &machine);

    void boot(CpuId cpu);

    x86::X86Machine &machine() { return machine_; }
    host::Mm &mm() { return mm_; }
    host::SoftTimers &timers() { return timers_; }

    using VectorHandler = std::function<void(x86::X86Cpu &)>;
    void requestVector(std::uint8_t vec, VectorHandler handler);

    /** Block the calling CPU's thread until @p pred holds. */
    void blockUntil(x86::X86Cpu &cpu, const std::function<bool()> &pred);

    /** Kernel -> user -> kernel round trip around @p user_work (the
     *  QEMU process); x86 KVM's lazy state handling makes these edges
     *  expensive (paper §5.2). */
    void runInUserspace(x86::X86Cpu &cpu, FunctionRef<void()> user_work);

    /// @name x86::X86OsVectors
    /// @{
    void interrupt(x86::X86Cpu &cpu, std::uint8_t vector) override;
    void syscall(x86::X86Cpu &cpu, std::uint32_t nr) override;
    const char *name() const override { return "x86-host-linux"; }
    /// @}

  private:
    x86::X86Machine &machine_;
    host::Mm mm_;
    host::SoftTimers timers_;
    std::array<VectorHandler, 256> handlers_{};
};

} // namespace kvmarm::kvmx86

#endif // KVMARM_KVMX86_HOST_X86_HH
