/**
 * @file
 * System bus: routes physical addresses to RAM or MMIO devices and charges
 * per-device access latencies.
 *
 * All I/O on the modelled ARM machine is memory mapped (the paper, §3.4:
 * "all I/O mechanisms on the ARM architecture are based on load/store
 * operations to MMIO device regions"). The x86 machine additionally routes
 * port I/O through its own CPU model.
 *
 * Both CPU models reach the physical address space through one step: after
 * their own translation they decode an access that stays within one page
 * to a Bus::Target — a RAM page or a device region, with its cost — and
 * access it. ArmCpu keeps the target as its TLB slot's view (arm/tlb.hh).
 * KvmIoBus is the other registry here: a VM's in-kernel devices, which a
 * hypervisor consults on an MMIO exit.
 */

#ifndef KVMARM_MEM_BUS_HH
#define KVMARM_MEM_BUS_HH

#include <cstdint>
#include <cstring>
#include <functional>
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

    /**
     * What a physical access that stays within one page reaches: a RAM
     * page or a device region, and what one access costs. A RAM target
     * is good while PhysMem::current() holds for its page; a device
     * target for as long as the bus lives, as the bus never moves a
     * device.
     */
    struct Target
    {
        PhysMem::HostPage ram; //!< ram.bytes null: no page (reads zero)
        Region dev{};          //!< dev.dev null: not a device
        Cycles latency = 0;    //!< kRamLatency or dev.dev->accessLatency()

        /**
         * Read (@return the value) or write @p value: @p len bytes at
         * @p pa, all inside this target's page or region. The caller
         * charges latency.
         */
        std::uint64_t
        access(CpuId cpu, Addr pa, bool write, std::uint64_t value,
               unsigned len) const
        {
            if (ram.bytes) {
                // A page decoded for a write is private: a non-const
                // object.
                auto *p = const_cast<std::uint8_t *>(ram.bytes) +
                          (pa & (kPageSize - 1));
                if (write) {
                    storeBytes(p, value, len);
                    return 0;
                }
                return loadBytes(p, len);
            }
            if (dev.dev) {
                if (write) {
                    dev.dev->write(cpu, pa - dev.base, value, len);
                    return 0;
                }
                return dev.dev->read(cpu, pa - dev.base, len);
            }
            return 0; // a RAM frame never written (only ever read)
        }

      private:
        /** Little-endian load of @p len (1/2/4/8) bytes, as
         *  PhysMem::read. */
        static std::uint64_t loadBytes(const std::uint8_t *p, unsigned len)
        {
            std::uint64_t v = 0;
            switch (len) {
              case 1: std::memcpy(&v, p, 1); break;
              case 2: std::memcpy(&v, p, 2); break;
              case 4: std::memcpy(&v, p, 4); break;
              case 8: std::memcpy(&v, p, 8); break;
              default: std::memcpy(&v, p, len); break;
            }
            return v;
        }

        /** Store of the low @p len bytes of @p v, as PhysMem::write. */
        static void storeBytes(std::uint8_t *p, std::uint64_t v, unsigned len)
        {
            switch (len) {
              case 1: std::memcpy(p, &v, 1); break;
              case 2: std::memcpy(p, &v, 2); break;
              case 4: std::memcpy(p, &v, 4); break;
              case 8: std::memcpy(p, &v, 8); break;
              default: std::memcpy(p, &v, len); break;
            }
        }
    };

    /**
     * The target of an access at @p pa: RAM (its page as a @p write
     * finds it, COW-faulted first) or the device region holding @p pa;
     * nullopt when neither does.
     */
    std::optional<Target>
    decode(Addr pa, bool write)
    {
        if (ram_.contains(pa)) {
            return Target{write ? ram_.hostPageForWrite(pa)
                                : ram_.hostPageForRead(pa),
                          {}, kRamLatency};
        }
        if (const Region *r = regionAt(pa))
            return Target{{}, *r, r->dev->accessLatency()};
        return std::nullopt;
    }

    PhysMem &ram() { return ram_; }
    const PhysMem &ram() const { return ram_; }

    /** Cycles a cached RAM access costs (uniform approximation). */
    static constexpr Cycles kRamLatency = 1;

  private:
    PhysMem &ram_;
    std::vector<Region> regions_; //!< sorted by base (addDevice keeps order)
};

/**
 * A VM's in-kernel emulated devices, as Linux's generic kvm_io_bus
 * (virt/kvm): an MMIO exit to one of these regions is handled in the
 * kernel, without a return to user space. ARM's and x86's KVM both keep
 * one per VM.
 */
class KvmIoBus
{
  public:
    using Handler = std::function<std::uint64_t(
        bool is_write, Addr offset, std::uint64_t value, unsigned len)>;

    /** Register [base, base+size); fatal when the region is empty, wraps
     *  or overlaps one already registered. */
    void add(Addr base, Addr size, Handler handler);

    /** The handler whose region holds @p addr, with @p addr's offset in
     *  that region in @p offset; null when no region holds it. */
    Handler *find(Addr addr, Addr &offset);

    /** Snapshot: the regions, which a restore requires the restoring VM
     *  to have registered already; handlers are closures and the
     *  rebuild supplies them. */
    template <class V>
    void
    visit(V &v)
    {
        v.fixed(devices_, "kernel devices (addKernelDevice before restoring)");
    }

  private:
    struct Device
    {
        Addr base;
        Addr size;
        Handler handler;

        template <class V>
        void
        visit(V &v)
        {
            v.same(base, "kernel device base");
            v.same(size, "kernel device size");
        }
    };

    std::vector<Device> devices_; //!< in registration order
};

} // namespace kvmarm

#endif // KVMARM_MEM_BUS_HH
