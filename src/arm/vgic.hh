/**
 * @file
 * GICv2 hardware virtualization support: the VGIC (paper §2).
 *
 * Per CPU there is a *hyp control interface* (GICH) holding the list
 * registers through which the hypervisor injects virtual interrupts, and a
 * *virtual CPU interface* (GICV) which the VM sees in place of the physical
 * GICC, letting the guest ACK and EOI virtual interrupts without trapping.
 */

#ifndef KVMARM_ARM_VGIC_HH
#define KVMARM_ARM_VGIC_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "arm/gic.hh"
#include "mem/bus.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmMachine;

/** Number of list registers on a Cortex-A15. */
inline constexpr unsigned kNumListRegs = 4;

/** List register state field. */
enum class LrState : std::uint8_t
{
    Empty = 0,
    Pending = 1,
    Active = 2,
    PendingActive = 3,
};

/** One VGIC list register. */
struct ListReg
{
    IrqId virq = 0;
    std::uint8_t priority = 0;
    LrState state = LrState::Empty;
    bool hw = false;    //!< linked to a physical interrupt
    IrqId pirq = 0;     //!< physical id when hw is set
    CpuId source = 0;   //!< source vcpu for virtual SGIs

    std::uint32_t pack() const;
    static ListReg unpack(std::uint32_t raw);
    bool operator==(const ListReg &) const = default;
};

/// GICH (hyp control interface) register offsets.
namespace gich {
inline constexpr Addr HCR = 0x00;  //!< bit0 EN, bit1 UIE (underflow irq)
inline constexpr Addr VTR = 0x04;  //!< type: number of LRs
inline constexpr Addr VMCR = 0x08; //!< VM view of GICV CTLR/PMR/BPR
inline constexpr Addr MISR = 0x10; //!< maintenance interrupt status
inline constexpr Addr EISR0 = 0x20;
inline constexpr Addr EISR1 = 0x24;
inline constexpr Addr ELRSR0 = 0x30; //!< empty list register status
inline constexpr Addr ELRSR1 = 0x34;
inline constexpr Addr APR0 = 0xF0; //!< active priorities
inline constexpr Addr APR1 = 0xF4;
inline constexpr Addr APR2 = 0xF8;
inline constexpr Addr APR3 = 0xFC;
inline constexpr Addr LR0 = 0x100; //!< list registers, 4 bytes apart
} // namespace gich

/**
 * The 16 VGIC control registers a world switch must move (Table 1): the
 * twelve GICH registers plus the four words of VM-interface configuration
 * mirrored through VMCR. Offsets into the GICH region.
 */
inline constexpr std::array<Addr, 16> kVgicCtrlSaveList = {
    gich::HCR,   gich::VTR,   gich::VMCR,  gich::MISR,
    gich::EISR0, gich::EISR1, gich::ELRSR0, gich::ELRSR1,
    gich::APR0,  gich::APR1,  gich::APR2,  gich::APR3,
    // VM-interface configuration words (CTLR/PMR/BPR/running state),
    // accessed through the VMCR aliases at these implementation-defined
    // offsets on the modelled core.
    0x200, 0x204, 0x208, 0x20C,
};

/** Every GICH register a full world switch moves, in issue order: the
 *  control registers above, then the list registers. */
inline constexpr auto kVgicSwitchList = [] {
    std::array<Addr, kVgicCtrlSaveList.size() + kNumListRegs> offs{};
    std::size_t n = 0;
    for (Addr off : kVgicCtrlSaveList)
        offs[n++] = off;
    for (unsigned i = 0; i < kNumListRegs; ++i)
        offs[n++] = gich::LR0 + 4 * i;
    return offs;
}();

/** Per-CPU VGIC state, shared between the GICH and GICV interfaces. */
struct VgicBank
{
    bool en = false;   //!< GICH_HCR.EN: virtual interface enabled
    bool uie = false;  //!< GICH_HCR.UIE: maintenance irq on empty LRs
    bool vmEnabled = false;    //!< VM's GICV_CTLR enable (via VMCR)
    std::uint8_t vmPmr = 0xFF; //!< VM's priority mask (via VMCR)
    std::array<std::uint32_t, 4> apr{};
    std::array<ListReg, kNumListRegs> lr{};
};

/**
 * GICH: the hypervisor's per-CPU control interface for virtual interrupts.
 */
class VgicHypInterface : public MmioDevice, public Snapshottable
{
  public:
    VgicHypInterface(ArmMachine &machine, GicDistributor &dist,
                     unsigned num_cpus);

    /** Read-only: every change goes through a member that also refreshes
     *  the CPU's virtual IRQ line. */
    const VgicBank &bank(CpuId cpu) const { return banks_.at(cpu); }

    /** Empty-LR bitmask (ELRSR semantics). */
    std::uint32_t emptyLrMask(CpuId cpu) const;

    /** True if the virtual interface should assert the guest's IRQ line.
     *  The level is recomputed whenever its inputs change and held on the
     *  CPU's VirtIrq pin, so this is a load. */
    bool virqLineHigh(CpuId cpu) const;

    /** Raise the maintenance interrupt if the underflow condition holds. */
    void checkMaintenance(CpuId cpu);

    /// @name The VM's view through GICV (VgicCpuInterface forwards here)
    /// @{
    /** IAR: acknowledge the best pending list register, spurious if
     *  none. */
    IrqId acknowledgeVirq(CpuId cpu);
    /** EOIR: complete @p value's interrupt. */
    void endOfVirq(CpuId cpu, std::uint32_t value);
    void setVmEnabled(CpuId cpu, bool enabled);
    void setVmPmr(CpuId cpu, std::uint8_t pmr);
    /// @}

    /// @name MmioDevice
    /// @{
    std::string name() const override { return "gich"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /** GICH registers neither read the clock nor schedule events. The
     *  line level is refreshed once, after the last write. */
    bool accessBurst(CpuId cpu, Addr base, std::span<const Addr> offsets,
                     std::span<std::uint32_t> values, bool write) override;
    /// @}

    /// @name Snapshottable
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        v.fixed(banks_, "banks");
        if constexpr (V::kLoading) {
            for (CpuId c = 0; c < banks_.size(); ++c)
                refreshLine(c);
        }
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

  private:
    void refreshLine(CpuId cpu);
    /** write() without the line refresh; true if it changed an input of
     *  the line level. */
    bool store(CpuId cpu, Addr offset, std::uint32_t v);

    ArmMachine &machine_;
    GicDistributor &dist_;
    std::vector<VgicBank> banks_;
};

/**
 * GICV: the CPU interface the VM sees. Stage-2 maps the VM's idea of the
 * GICC base address here, so guest ACK/EOI never trap (paper §3.5).
 */
class VgicCpuInterface : public MmioDevice
{
  public:
    VgicCpuInterface(ArmMachine &machine, VgicHypInterface &hyp);

    /// @name MmioDevice
    /// @{
    std::string name() const override { return "gicv"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /// @}

  private:
    ArmMachine &machine_;
    VgicHypInterface &hyp_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_VGIC_HH
