/**
 * @file
 * Local APIC model (xAPIC, *without* virtual-APIC support: "x86 hardware
 * with virtual APIC support was not yet available at the time of our
 * experiments", paper §5.1). One banked MMIO page per CPU; EOI is a plain
 * MMIO write, which is why guest EOIs must trap to the hypervisor on this
 * generation of hardware.
 */

#ifndef KVMARM_X86_APIC_HH
#define KVMARM_X86_APIC_HH

#include <cstdint>
#include <vector>

#include "mem/bus.hh"
#include "sim/types.hh"

namespace kvmarm::x86 {

class X86Machine;

/// APIC register offsets (subset).
namespace apic {
inline constexpr Addr ID = 0x020;
inline constexpr Addr TPR = 0x080;
inline constexpr Addr EOI = 0x0B0;
inline constexpr Addr ICR_LO = 0x300; //!< write sends the IPI
inline constexpr Addr ICR_HI = 0x310; //!< destination in bits [63:56]
inline constexpr Addr LVT_TIMER = 0x320;
inline constexpr Addr TIMER_INIT = 0x380;
inline constexpr Addr TIMER_CUR = 0x390;
} // namespace apic

inline constexpr Addr kApicBase = 0xFEE00000;

/** Per-CPU local APIC state. */
struct ApicBank
{
    std::vector<std::uint8_t> pending;   //!< pending vectors, unsorted
    std::vector<std::uint8_t> inService; //!< ISR stack, innermost last
    std::uint64_t icrHi = 0;
    bool timerEnabled = false;
    std::uint8_t timerVector = 0xEF;
    std::uint64_t timerDeadline = 0;
    std::uint64_t timerEvent = 0;
};

/**
 * All local APICs of a machine, exposed as one banked MMIO device. Each
 * CPU's Apic pin (X86Cpu::kPinApic) is high exactly while
 * pendingVector() is non-zero: every member that changes the pending or
 * in-service set pushes the new level.
 */
class LocalApic : public MmioDevice
{
  public:
    LocalApic(X86Machine &machine, unsigned num_cpus);

    /** Post vector @p vec to @p cpu at cycle @p when (wakes idle CPUs). */
    void postVector(CpuId cpu, std::uint8_t vec, Cycles when);

    /** Deliver (move pending -> in-service); returns the vector. */
    std::uint8_t acceptVector(CpuId cpu);

    /** EOI the innermost in-service interrupt. */
    void eoi(CpuId cpu);

    /** Read-only: the pending and in-service sets change only through the
     *  members above, which keep the CPU's Apic pin current. */
    const ApicBank &bank(CpuId cpu) const { return banks_.at(cpu); }

    /// @name MmioDevice (native/root-mode access path)
    /// @{
    std::string name() const override { return "lapic"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /// @}

    /** Handle an ICR write from @p cpu (also used by KVM's emulation for
     *  the physical kick IPIs it sends). */
    void icrWrite(CpuId cpu, std::uint64_t value);

    /** Program the one-shot APIC timer. */
    void programTimer(CpuId cpu, Cycles deadline, std::uint8_t vector);
    void cancelTimer(CpuId cpu);

  private:
    /** Highest pending vector deliverable to @p cpu, or 0. */
    std::uint8_t pendingVector(CpuId cpu) const;
    /** Push @p cpu's pending level to its Apic pin. */
    void refreshPin(CpuId cpu);

    X86Machine &machine_;
    std::vector<ApicBank> banks_;
};

} // namespace kvmarm::x86

#endif // KVMARM_X86_APIC_HH
