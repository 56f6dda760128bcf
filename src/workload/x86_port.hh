/**
 * @file
 * The x86 SysPort: the same miniature Linux on the x86 machine. The
 * architectural differences the paper's comparison hinges on fall out of
 * the op mapping: sched_clock is rdtsc (never traps), the oneshot timer is
 * the APIC timer (every reprogram traps in a VM), reschedule IPIs go
 * through the ICR (trap + decode), and every handled interrupt needs an
 * EOI MMIO write (trap without a virtual APIC).
 */

#ifndef KVMARM_WORKLOAD_X86_PORT_HH
#define KVMARM_WORKLOAD_X86_PORT_HH

#include <array>

#include "workload/sysport.hh"
#include "x86/machine.hh"

namespace kvmarm::wl {

/** State shared by the CPUs of one x86 Linux instance. */
struct X86OsImage
{
    Addr ramSize = 128 * kMiB;
    Addr nextFreePage = 0;
    Addr nextUserPage = 0;
    bool booted = false;
};

/** Per-CPU x86 port; also the OS's interrupt vectors. */
class X86LinuxPort : public SysPort, public x86::X86OsVectors
{
  public:
    X86LinuxPort(x86::X86Cpu &cpu, X86OsImage &image, unsigned index);

    void boot();

    x86::X86Cpu &cpu() { return cpu_; }

    /// @name SysPort
    /// @{
    unsigned cpuIndex() const override { return index_; }
    Cycles now() override { return cpu_.now(); }
    void kernelCompute(Cycles c) override { cpu_.compute(c); }
    void userCompute(Cycles c) override;
    void fpCompute(Cycles c) override { cpu_.compute(c); }
    std::uint64_t schedClock() override { return cpu_.rdtsc(); }
    void timerProgram(Cycles delta) override;
    void syscallEdge() override;
    void contextSwitchMmu() override;
    void sendRescheduleIpi(unsigned target_idx) override;
    void idle() override;
    void demandFault() override;
    void protFault() override;
    void ptSetup(unsigned pages) override;
    void tlbShootdown(bool smp) override;
    void devKick(unsigned slot, Addr nbytes) override;
    std::uint64_t devCompletions(unsigned slot) const override
    {
        return devCompletions_[slot];
    }
    std::uint64_t ipisReceived() const override { return ipis_; }
    std::uint64_t timerIrqsReceived() const override { return timerIrqs_; }
    /// @}

    /// @name x86::X86OsVectors
    /// @{
    void interrupt(x86::X86Cpu &cpu, std::uint8_t vector) override;
    void syscall(x86::X86Cpu &cpu, std::uint32_t nr) override;
    const char *name() const override { return "mini-linux-x86"; }
    /// @}

    static constexpr std::uint8_t kRescheduleVector = 0xFD;
    static constexpr std::uint8_t kTimerVector = x86::kDefaultTimerVector;
    static constexpr std::uint8_t kShootdownVector = 0xFB;

    /** Shootdown acks this CPU's handler has produced. */
    std::uint64_t shootdownAcks = 0;
    /** Peer port, set by the harness for SMP shootdowns. */
    X86LinuxPort *peer = nullptr;

  private:
    Addr allocPage();

    x86::X86Cpu &cpu_;
    X86OsImage &image_;
    unsigned index_;

    /** Page-cache / slab models: steady-state faults and fork/exec reuse
     *  these GPAs, so their EPT state is warm as on real systems. */
    static constexpr unsigned kPoolPages = 64;
    static constexpr unsigned kSlabPages = 128;
    std::vector<Addr> faultPool_;
    unsigned faultPoolIdx_ = 0;
    std::vector<Addr> slabPool_;
    unsigned slabIdx_ = 0;

    std::uint64_t ipis_ = 0;
    std::uint64_t timerIrqs_ = 0;
    std::array<std::uint64_t, 8> devCompletions_{};
};

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_X86_PORT_HH
