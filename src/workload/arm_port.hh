/**
 * @file
 * The ARM SysPort: a miniature ARM Linux. It boots real Stage-1 page
 * tables, drives the GIC through MMIO, fields IRQs/aborts as the machine's
 * PL1 vectors, and demand-pages its user region. The *same* code runs
 * natively on the machine and inside a KVM/ARM VM — only the environment
 * (Stage-2, trap configuration, device emulation) differs, which is the
 * whole point of full virtualization and of the paper's native-vs-virt
 * methodology.
 */

#ifndef KVMARM_WORKLOAD_ARM_PORT_HH
#define KVMARM_WORKLOAD_ARM_PORT_HH

#include <array>
#include <memory>
#include <optional>

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "arm/pagetable.hh"
#include "workload/sysport.hh"

namespace kvmarm::wl {

/** State shared by the CPUs of one ARM Linux instance (native or guest). */
struct ArmOsImage
{
    Addr ramBase = arm::ArmMachine::kRamBase;
    Addr ramSize = 128 * kMiB;
    Addr pgd = 0;
    Addr nextFreePage = 0; //!< boot-time bump allocator (top-down)
    bool booted = false;

    /** User VA region demand-paged by the port. */
    static constexpr Addr kUserBase = 0x00400000;
    Addr nextUserVa = kUserBase;
};

/** Per-CPU ARM port; also the OS's PL1 exception vectors. */
class ArmLinuxPort : public SysPort, public arm::OsVectors
{
  public:
    ArmLinuxPort(arm::ArmCpu &cpu, ArmOsImage &image, unsigned index);
    /** The page-table editor's callbacks capture this port. */
    ArmLinuxPort(const ArmLinuxPort &) = delete;
    ArmLinuxPort &operator=(const ArmLinuxPort &) = delete;

    /** Bring up this CPU: build tables (first CPU), program the MMU,
     *  initialize the GIC, install vectors, unmask interrupts. Call from
     *  the native boot path or from inside the guest. */
    void boot();

    arm::ArmCpu &cpu() { return cpu_; }

    /// @name SysPort
    /// @{
    unsigned cpuIndex() const override { return index_; }
    Cycles now() override { return cpu_.now(); }
    void kernelCompute(Cycles c) override { cpu_.compute(c); }
    void userCompute(Cycles c) override;
    void fpCompute(Cycles c) override { cpu_.fpOp(c); }
    std::uint64_t schedClock() override { return cpu_.readCntvct(); }
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

    /// @name arm::OsVectors
    /// @{
    void irq(arm::ArmCpu &cpu) override;
    void svc(arm::ArmCpu &cpu, std::uint32_t num) override;
    bool pageFault(arm::ArmCpu &cpu, Addr va, bool write,
                   bool user) override;
    const char *name() const override { return "mini-linux-arm"; }
    /// @}

  private:
    Addr allocPage();
    void buildKernelTables();
    void gicInit();

    arm::ArmCpu &cpu_;
    ArmOsImage &image_;
    unsigned index_;
    /** Edits image_'s Stage-1 tables through this CPU. */
    arm::PageTableEditor editor_;

    std::uint64_t ipis_ = 0;
    std::uint64_t timerIrqs_ = 0;
    std::array<std::uint64_t, 8> devCompletions_{};

    /** Scratch read-only page for the protection-fault benchmark. */
    std::optional<Addr> roPageVa_;
    bool inProtFaultBench_ = false;
    std::uint64_t protFaults_ = 0;
    std::uint32_t asid_ = 1;

    /** Page-cache model: demand faults recycle these (va, pa) pairs, so
     *  steady-state faults hit warm Stage-2 mappings as on real systems. */
    static constexpr unsigned kPoolPages = 64;
    std::vector<std::pair<Addr, Addr>> faultPool_;
    unsigned faultPoolIdx_ = 0;
    Addr pendingBackingPa_ = 0; //!< backing page the next fault must use

    /** Slab model for fork/exec page-table pages. */
    static constexpr unsigned kSlabPages = 128;
    std::vector<Addr> slabPool_;
    unsigned slabIdx_ = 0;
};

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_ARM_PORT_HH
