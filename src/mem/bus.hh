/**
 * @file
 * System bus: routes physical addresses to RAM or MMIO devices and charges
 * per-device access latencies.
 *
 * All I/O on the modelled ARM machine is memory mapped (the paper, §3.4:
 * "all I/O mechanisms on the ARM architecture are based on load/store
 * operations to MMIO device regions"). The x86 machine additionally routes
 * port I/O through its own CPU model.
 */

#ifndef KVMARM_MEM_BUS_HH
#define KVMARM_MEM_BUS_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace kvmarm {

/**
 * A device with memory-mapped registers. Accesses carry the initiating CPU
 * so that per-CPU banked interfaces (GIC CPU interface, VGIC, timers) can
 * dispatch to the right bank.
 */
class MmioDevice
{
  public:
    virtual ~MmioDevice() = default;

    /** Device instance name for diagnostics. */
    virtual std::string name() const = 0;

    /** Read @p len bytes at @p offset within the device's region. */
    virtual std::uint64_t read(CpuId cpu, Addr offset, unsigned len) = 0;

    /** Write @p value (@p len bytes) at @p offset within the region. */
    virtual void write(CpuId cpu, Addr offset, std::uint64_t value,
                       unsigned len) = 0;

    /**
     * Cycles one register access costs the initiating CPU. Device MMIO is
     * typically far slower than cached memory (paper §3.5); the GIC models
     * override this. A fixed property of the device: it must not change
     * with device state (an ARM TLB slot's device view keeps it).
     */
    virtual Cycles accessLatency() const { return 50; }

    /**
     * Access the 32-bit registers at @p base + @p offsets[i] in order, as
     * that sequence of read()s (into @p values) or write()s (of @p values)
     * would with no time passing between them; the initiating CPU charges
     * accessLatency() per register itself (ArmCpu::regBurst()). A device
     * whose accesses read the clock or schedule events returns false
     * without doing anything, as the default does.
     */
    virtual bool
    accessBurst(CpuId cpu, Addr base, std::span<const Addr> offsets,
                std::span<std::uint32_t> values, bool write)
    {
        (void)cpu, (void)base, (void)offsets, (void)values, (void)write;
        return false;
    }
};

/** Result of a bus access: the value read (for loads) plus cycles charged. */
struct BusAccess
{
    std::uint64_t value = 0;
    Cycles latency = 0;
    bool ok = false; //!< false: address decodes to neither RAM nor a device
};

/** Physical address decoder for one machine. */
class Bus
{
  public:
    explicit Bus(PhysMem &ram) : ram_(ram) {}

    /**
     * Register a device region [base, base+size). Regions must not overlap
     * RAM or each other.
     */
    void addDevice(Addr base, Addr size, MmioDevice *dev);

    /** True if @p pa is backed by RAM. */
    bool isRam(Addr pa, unsigned len = 1) const;

    /** One device's window of the physical address space. */
    struct Region
    {
        Addr base;
        Addr size;
        MmioDevice *dev;
    };

    /** Region covering @p pa, or nullptr. The pointer stays valid until
     *  the next addDevice(). */
    const Region *regionAt(Addr pa) const;

    /** Device covering @p pa, or nullptr. */
    MmioDevice *deviceAt(Addr pa) const;

    /** Base address of the region owned by @p dev, if registered. */
    std::optional<Addr> regionBase(const MmioDevice *dev) const;

    /** Perform a physical read. */
    BusAccess read(CpuId cpu, Addr pa, unsigned len);

    /** Perform a physical write. */
    BusAccess write(CpuId cpu, Addr pa, std::uint64_t value, unsigned len);

    PhysMem &ram() { return ram_; }
    const PhysMem &ram() const { return ram_; }

    /** Cycles a cached RAM access costs (uniform approximation). */
    static constexpr Cycles kRamLatency = 1;

  private:
    const Region *regionFor(CpuId cpu, Addr pa) const;

    PhysMem &ram_;
    std::vector<Region> regions_; //!< sorted by base (addDevice keeps order)

    /**
     * Last region each CPU decoded to. CPUs poll the same device registers
     * (GIC, timer) in long runs, so this usually short-circuits the binary
     * search with one range check. Cleared whenever a device is added
     * (push_back moves the Region objects).
     */
    mutable std::vector<const Region *> lastRegion_;
};

} // namespace kvmarm

#endif // KVMARM_MEM_BUS_HH
