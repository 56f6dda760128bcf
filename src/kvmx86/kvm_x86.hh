/**
 * @file
 * The KVM x86-style hypervisor on the VMX machine model, mirroring the
 * mainline Linux KVM design the paper compares against (§5): the whole
 * hypervisor runs in root mode as ordinary kernel code, hardware VMCS
 * transitions replace ARM's software world switch, EPT faults populate
 * guest memory, the local APIC is emulated in the kernel (EOI and ICR
 * accesses trap — no virtual APIC on this hardware generation), and
 * everything else exits to user-space QEMU.
 */

#ifndef KVMARM_KVMX86_KVM_X86_HH
#define KVMARM_KVMX86_KVM_X86_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "kvmx86/host_x86.hh"
#include "mem/bus.hh"
#include "mem/page_map.hh"
#include "sim/stats.hh"
#include "x86/apic.hh"
#include "x86/cpu.hh"

namespace kvmarm::kvmx86 {

class KvmX86;
class VmX86;

/// Hypercall numbers (mirror the ARM stack's).
namespace vmcallnr {
inline constexpr std::uint32_t kRunVcpu = 0x4B860001;
inline constexpr std::uint32_t kStopVcpu = 0x4B860002;
inline constexpr std::uint32_t kTrapOnly = 0x4B860003;
inline constexpr std::uint32_t kTestHypercall = 0x4B860004;
} // namespace vmcallnr

/** exit.<reason>: a VCPU's count of VM exits, indexed by ExitReason. */
inline constexpr auto kExitStats =
    statFamily<x86::kNumExitReasons>("exit.", [](std::size_t i) {
        return x86::exitReasonName(static_cast<x86::ExitReason>(i));
    });

/** The vector KVM uses to kick a remote VCPU out of guest mode. */
inline constexpr std::uint8_t kKickVector = 0xF2;

/** MMIO exit to user space (KVM_EXIT_MMIO / KVM_EXIT_IO). */
struct X86MmioExit
{
    Addr gpa = 0;
    bool isPortIo = false;
    std::uint16_t port = 0;
    bool isWrite = false;
    unsigned len = 4;
    std::uint64_t data = 0;
    bool handled = false;
};

/** One x86 virtual CPU. */
class VCpuX86
{
  public:
    VCpuX86(VmX86 &vm, unsigned index, CpuId phys_cpu);

    VmX86 &vm() { return vm_; }
    unsigned index() const { return index_; }
    CpuId physCpu() const { return physCpu_; }

    /** Guest context (lives in the VMCS while resident). */
    x86::RegisterFileX86 regs;
    bool guestUserMode = false;
    bool guestIf = true;
    std::uint64_t tscOffset = 0;
    x86::X86OsVectors *guestOs = nullptr;

    /** The in-kernel virtual APIC, the host soft timer that stands in
     *  for its timer (0 when disarmed) and that timer's deadline. */
    x86::ApicState apic;
    std::uint64_t apicTimer = 0;
    Cycles apicTimerDeadline = 0;
    bool blocked = false;
    bool kicked = false;
    bool stopRequested = false;

    void setGuestOs(x86::X86OsVectors *os) { guestOs = os; }

    /** KVM_RUN (mirrors core::VCpu::run). */
    void run(x86::X86Cpu &cpu,
             const std::function<void(x86::X86Cpu &)> &guest_main);

    StatGroup stats;

  private:
    VmX86 &vm_;
    unsigned index_;
    CpuId physCpu_;
};

/** One x86 VM: EPT, VCPUs, devices. */
class VmX86 : public x86::EptView
{
  public:
    VmX86(KvmX86 &kvm, Addr guest_ram_size);

    KvmX86 &kvm() { return kvm_; }
    Addr ramSize() const { return ramSize_; }

    VCpuX86 &addVcpu(CpuId phys_cpu);
    std::vector<std::unique_ptr<VCpuX86>> &vcpus() { return vcpus_; }

    /** Guest-RAM EPT fault (get_user_pages + map). @return false if the
     *  GPA is not guest RAM (treated as MMIO). */
    bool handleEptFault(Addr gpa);

    std::size_t mappedPages() const { return mappedPages_; }

    /// @name x86::EptView
    /// @{
    bool translate(Addr gpa, Addr &hpa) override;
    /// @}

    /** Register an in-kernel emulated device: MMIO to [base, base+size)
     *  is handled without exiting to user space. */
    void
    addKernelDevice(Addr base, Addr size, KvmIoBus::Handler h)
    {
        kernelDevices_.add(base, size, std::move(h));
    }
    KvmIoBus &kernelDevices() { return kernelDevices_; }

    using UserMmioHandler =
        std::function<void(x86::X86Cpu &, VCpuX86 &, X86MmioExit &)>;
    void setUserMmioHandler(UserMmioHandler h) { userMmio_ = std::move(h); }
    UserMmioHandler &userMmioHandler() { return userMmio_; }

    /** User-space interrupt injection (KVM_IRQ_LINE). */
    void irqLine(x86::X86Cpu &current_cpu, std::uint8_t vector,
                 unsigned target_vcpu = 0);

    static constexpr Addr kKernelTestDevBase = 0xD0000000;

  private:
    KvmX86 &kvm_;
    Addr ramSize_;
    PageMap<std::optional<Addr>> pages_; //!< gpa page -> hpa page
    std::size_t mappedPages_ = 0;
    std::vector<std::unique_ptr<VCpuX86>> vcpus_;
    KvmIoBus kernelDevices_;
    UserMmioHandler userMmio_;
};

/** The KVM x86 module. */
class KvmX86 : public x86::VmxHandler
{
  public:
    explicit KvmX86(X86Host &host);

    void initCpu(x86::X86Cpu &cpu);
    std::unique_ptr<VmX86> createVm(Addr guest_ram_size);

    X86Host &host() { return host_; }
    x86::X86Machine &machine() { return host_.machine(); }

    VCpuX86 *running(CpuId cpu) { return running_.at(cpu); }
    void queueEnter(CpuId cpu, VCpuX86 *vcpu) {
        pendingEnter_.at(cpu) = vcpu;
    }

    /** Deliver a virtual interrupt to @p target (queues it in the virtual
     *  APIC and kicks the VCPU). */
    void deliverVirq(x86::X86Cpu &current_cpu, VCpuX86 &target,
                     std::uint8_t vector);

    /// @name x86::VmxHandler
    /// @{
    void vmexit(x86::X86Cpu &cpu, const x86::ExitInfo &info) override;
    const char *name() const override { return "kvm-x86"; }
    /// @}

  private:
    void rootVmcall(x86::X86Cpu &cpu, const x86::ExitInfo &info);
    void enterVm(x86::X86Cpu &cpu, VCpuX86 &vcpu);
    void saveVcpu(x86::X86Cpu &cpu, VCpuX86 &vcpu);
    void handleEpt(x86::X86Cpu &cpu, VCpuX86 &vcpu,
                   const x86::ExitInfo &info);
    void handleApicAccess(x86::X86Cpu &cpu, VCpuX86 &vcpu,
                          const x86::ExitInfo &info);
    void handleIo(x86::X86Cpu &cpu, VCpuX86 &vcpu,
                  const x86::ExitInfo &info);
    void handleHlt(x86::X86Cpu &cpu, VCpuX86 &vcpu);
    void injectPending(x86::X86Cpu &cpu, VCpuX86 &vcpu);
    /** (Re)arm @p vcpu's APIC timer as a host soft timer at @p deadline. */
    void armGuestTimer(VCpuX86 &vcpu, Cycles deadline);
    void cancelGuestTimer(VCpuX86 &vcpu);
    void userMmioExit(x86::X86Cpu &cpu, VCpuX86 &vcpu, X86MmioExit &exit);

    X86Host &host_;
    std::vector<VCpuX86 *> running_;
    std::vector<VCpuX86 *> pendingEnter_;
    bool vectorsRegistered_ = false;
};

} // namespace kvmarm::kvmx86

#endif // KVMARM_KVMX86_KVM_X86_HH
