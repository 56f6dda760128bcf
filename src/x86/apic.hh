/**
 * @file
 * Local APIC model (xAPIC, *without* virtual-APIC support: "x86 hardware
 * with virtual APIC support was not yet available at the time of our
 * experiments", paper §5.1). One banked MMIO page per CPU; EOI is a plain
 * MMIO write, which is why guest EOIs must trap to the hypervisor on this
 * generation of hardware.
 *
 * ApicState is one CPU's xAPIC register state and the operations on it.
 * The machine's LocalApic keeps one per physical CPU, and KVM x86's
 * in-kernel emulation keeps one per VCPU (kvmx86::VCpuX86::apic), so both
 * sides pend, accept, EOI and decode IPIs the same way.
 */

#ifndef KVMARM_X86_APIC_HH
#define KVMARM_X86_APIC_HH

#include <array>
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

/** The LVT timer vector until software writes LVT_TIMER. */
inline constexpr std::uint8_t kDefaultTimerVector = 0xEF;

/**
 * One CPU's xAPIC state: the IRR and ISR as 256-bit vector sets, ICR_HI
 * and the LVT timer vector. A vector is deliverable only above the
 * highest in-service one; pending an already-pending vector coalesces,
 * as the IRR does.
 */
class ApicState
{
  public:
    /** A decoded ICR_LO write: the vector, the shorthand field (0 =
     *  destination field, 1 = self, 2 = all, 3 = all but self) and the
     *  targeted CPUs as a bit mask. */
    struct Ipi
    {
        std::uint8_t vector;
        unsigned shorthand;
        std::uint64_t targets;
    };

    /** Set @p vec in the IRR. */
    void pend(std::uint8_t vec) { irr_.set(vec); }

    /** Highest pending vector above the highest in-service one, or 0. */
    std::uint8_t deliverable() const;

    /** Move deliverable() from the IRR to the ISR; returns it, or 0. */
    std::uint8_t accept();

    /** Clear the highest in-service vector. @return false if the ISR was
     *  empty. */
    bool eoi();

    /** An accepted vector the CPU never took goes back to the IRR. */
    void unaccept(std::uint8_t vec);

    bool pending(std::uint8_t vec) const { return irr_.test(vec); }
    bool inService(std::uint8_t vec) const { return isr_.test(vec); }
    bool anyPending() const { return irr_.highest() >= 0; }
    bool anyInService() const { return isr_.highest() >= 0; }
    std::uint8_t timerVector() const { return timerVector_; }

    /** Decode an ICR_LO write by CPU @p self of @p num_cpus (at most 64)
     *  against the stored ICR_HI. */
    Ipi decodeIcr(std::uint64_t icr_lo, unsigned self,
                  unsigned num_cpus) const;

    /** Register read of CPU @p id's ID or ICR_HI; other offsets read 0. */
    std::uint64_t read(Addr offset, unsigned id) const;

    /** Register write of ICR_HI or LVT_TIMER; other offsets are ignored.
     *  @return true if the write masks the timer. */
    bool write(Addr offset, std::uint64_t value);

  private:
    /** 256 vectors, one bit each, as the IRR and ISR lay them out. */
    struct VectorSet
    {
        std::array<std::uint64_t, 4> words{};
        void set(std::uint8_t v) { words[v >> 6] |= bit(v); }
        void clear(std::uint8_t v) { words[v >> 6] &= ~bit(v); }
        bool test(std::uint8_t v) const { return words[v >> 6] & bit(v); }
        /** The highest member, or -1 if the set is empty. */
        int highest() const;
        static std::uint64_t bit(std::uint8_t v) { return 1ull << (v & 63); }
    };

    VectorSet irr_;
    VectorSet isr_;
    std::uint64_t icrHi_ = 0;
    std::uint8_t timerVector_ = kDefaultTimerVector;
};

/**
 * All local APICs of a machine, exposed as one banked MMIO device: one
 * ApicState per CPU plus what only the hardware has, the IPI wire delay
 * and the one-shot timer. Each CPU's Apic pin (X86Cpu::kPinApic) is high
 * exactly while its state has a deliverable vector: every member that
 * changes the IRR or ISR pushes the new level.
 */
class LocalApic : public MmioDevice
{
  public:
    LocalApic(X86Machine &machine, unsigned num_cpus);

    /** Post vector @p vec to @p cpu at cycle @p when (wakes idle CPUs). */
    void postVector(CpuId cpu, std::uint8_t vec, Cycles when);

    /** Deliver (move pending -> in-service); returns the vector. */
    std::uint8_t acceptVector(CpuId cpu);

    /** EOI the highest in-service interrupt. */
    void eoi(CpuId cpu);

    /** Read-only: the IRR and ISR change only through the members above,
     *  which keep the CPU's Apic pin current. */
    const ApicState &state(CpuId cpu) const { return cpus_.at(cpu).state; }

    /// @name MmioDevice (native/root-mode access path)
    /// @{
    std::string name() const override { return "lapic"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /// @}

    /** Program the one-shot timer to post the LVT timer vector. */
    void programTimer(CpuId cpu, Cycles deadline);

  private:
    struct PerCpu
    {
        ApicState state;
        std::uint64_t timerDeadline = 0;
        std::uint64_t timerEvent = 0; //!< 0 while the timer is disarmed
    };

    /** Push @p cpu's deliverable level to its Apic pin. */
    void refreshPin(CpuId cpu);
    void cancelTimer(CpuId cpu);

    X86Machine &machine_;
    std::vector<PerCpu> cpus_;
};

} // namespace kvmarm::x86

#endif // KVMARM_X86_APIC_HH
