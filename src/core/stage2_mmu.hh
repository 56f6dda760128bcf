/**
 * @file
 * Stage-2 page table management and fault handling (paper §3.3): the
 * highvisor allocates guest memory by calling the host kernel's
 * get_user_pages-shaped service and installs IPA->PA translations; all
 * other IPAs fault, which is both the isolation mechanism and the MMIO
 * trapping mechanism.
 */

#ifndef KVMARM_CORE_STAGE2_MMU_HH
#define KVMARM_CORE_STAGE2_MMU_HH

#include <optional>
#include <vector>

#include "arm/pagetable.hh"
#include "host/mm.hh"
#include "mem/page_map.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::core {

/** Owner of one VM's Stage-2 translation tables. */
class Stage2Mmu : public Snapshottable
{
  public:
    Stage2Mmu(host::Mm &mm, std::uint16_t vmid, Addr ipa_ram_base,
              Addr ipa_ram_size);
    ~Stage2Mmu();

    Stage2Mmu(const Stage2Mmu &) = delete;
    Stage2Mmu &operator=(const Stage2Mmu &) = delete;

    /** VTTBR value: table root plus VMID. */
    std::uint64_t vttbr() const;

    std::uint16_t vmid() const { return vmid_; }

    /** True if @p ipa lies in the VM's RAM window. */
    bool isGuestRam(Addr ipa) const;

    /**
     * Handle a Stage-2 translation fault on guest RAM: allocate a host
     * page (get_user_pages) and map it. @return false if @p ipa is not
     * RAM (caller treats the access as MMIO).
     */
    bool handleRamFault(Addr ipa);

    /** Map one IPA page to a physical device page (e.g. the VM's GICC
     *  address onto the physical GICV, paper §3.5). */
    void mapDevicePage(Addr ipa, Addr pa);

    /** Remove a mapping (swap/ballooning paths); frees the backing page. */
    bool unmapPage(Addr ipa);

    /** Translate an IPA the highvisor wants to touch directly (e.g. to
     *  read a guest instruction for MMIO decode). */
    std::optional<Addr> ipaToPa(Addr ipa) const;

    /** Release every page the VM holds (VM teardown). */
    void releaseAll();

    std::size_t mappedRamPages() const { return mappedRamPages_; }

    /// @name Snapshottable (registered on the Mm's machine)
    ///
    /// Table contents come back with the RAM image; this serializes the
    /// bookkeeping (root, table pages in allocation order, RAM mappings
    /// sorted by IPA). snapshotLoad() replays the Stage-2 invariant events
    /// — unmap/unprotect the current state, protect-then-map the restored
    /// state — so the restoring machine's engine converges on the
    /// snapshot. Device mappings are not replayed: they are established by
    /// VM construction, which a clone performs identically.
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        v.same(ipaRamBase_, "IPA RAM base");
        v.same(ipaRamSize_, "IPA RAM size");
        v.pod(root_);
        v.seq(tablePages_);
        // The RAM mappings as a count then (ipa, pa) pairs in IPA order.
        std::vector<RamMapping> ram;
        if constexpr (!V::kLoading)
            ram = ramMappings();
        v.seq(ram);
        if constexpr (V::kLoading)
            setRamMappings(ram);
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override;
    /// @}

  private:
    struct RamMapping
    {
        Addr ipa;
        Addr pa;
    };

    std::size_t ramIndex(Addr ipa) const
    {
        return (ipa - ipaRamBase_) >> kPageShift;
    }
    /** Every RAM mapping, in IPA order. */
    std::vector<RamMapping> ramMappings() const;
    void setRamMappings(const std::vector<RamMapping> &ram);

    host::Mm &mm_;
    std::uint16_t vmid_;
    Addr ipaRamBase_;
    Addr ipaRamSize_;
    arm::PageTableEditor editor_;
    Addr root_ = 0;
    /** IPA RAM page -> backing host page, for teardown and refcounting.
     *  Walked in IPA order, so every walk that reaches the invariant
     *  engine or the free list is deterministic. */
    PageMap<std::optional<Addr>> ramPages_;
    std::size_t mappedRamPages_ = 0;
    std::vector<Addr> tablePages_; //!< pages consumed by the tables
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_STAGE2_MMU_HH
