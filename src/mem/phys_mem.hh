/**
 * @file
 * Sparse backing store for a machine's physical RAM.
 *
 * Pages are materialized on first touch so a simulated 2 GiB machine costs
 * only what the workload actually writes. Contents are real bytes: virtio
 * rings, migration state checks, and the isolation property tests read them
 * back. Pages are found through a flat two-level PageMap indexed by
 * (pa - base) >> kPageShift: no hashing and no allocation per access.
 *
 * Snapshot support is copy-on-write at page granularity: snapshotSave()
 * publishes every materialized page into an immutable shared image and
 * turns this PhysMem into a COW client of it; snapshotLoad() adopts the
 * same image. Reads hit shared image pages directly; the first write to a
 * shared page faults a private machine-owned copy. Any number of machines
 * (origin included) may share one image across host threads — the image is
 * read-only for its whole lifetime, and every mutable page is private to
 * exactly one machine.
 */

#ifndef KVMARM_MEM_PHYS_MEM_HH
#define KVMARM_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <memory>

#include "mem/page_map.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm {

/** Byte-addressable sparse physical memory covering [base, base+size). */
class PhysMem : public Snapshottable
{
  public:
    /**
     * @param base First physical address backed by RAM.
     * @param size RAM size in bytes; must be page aligned.
     * @param machine Machine whose snapshots include this RAM (null for
     *     standalone RAM that is snapshotted by hand or not at all).
     */
    PhysMem(Addr base, Addr size, MachineBase *machine = nullptr);

    Addr base() const { return base_; }
    Addr size() const { return size_; }

    /** True if @p pa (for @p len bytes) lies entirely within RAM. */
    bool contains(Addr pa, unsigned len = 1) const;

    /** Read @p len (1/2/4/8) bytes at @p pa. Unwritten memory reads 0. */
    std::uint64_t read(Addr pa, unsigned len) const;

    /** Write the low @p len bytes of @p value at @p pa. */
    void write(Addr pa, std::uint64_t value, unsigned len);

    /** Bulk copy out of RAM. */
    void readBlock(Addr pa, void *dst, Addr len) const;

    /** Bulk copy into RAM. */
    void writeBlock(Addr pa, const void *src, Addr len);

    /** Zero-fill a page (used when handing fresh pages to a VM). */
    void zeroPage(Addr pa);

    /** Number of distinct pages materialized (private + shared-only). */
    std::size_t touchedPages() const;

    /// @name COW introspection
    /// @{
    /** Writes that had to copy a shared image page into a private one. */
    std::uint64_t cowFaults() const { return cowFaults_; }
    /** Pages this machine owns privately (written since snapshot). */
    std::size_t privatePages() const { return privatePages_; }
    /** Pages in the snapshot image this machine reads through. */
    std::size_t sharedPages() const { return image_ ? image_->count : 0; }
    /// @}

    /// @name Snapshottable
    /// @{
    /** The geometry must match; the pages travel as the attachment. */
    template <class V>
    void
    visit(V &v)
    {
        v.same(base_, "RAM base");
        v.same(size_, "RAM size");
        v.pod(cowFaults_);
    }
    /** Publishes the page image and becomes a COW client of it (this is
     *  why Snapshottable::snapshotSave is non-const). */
    void snapshotSave(SnapshotWriter &w) override;
    /** Adopts the published image in place of this machine's pages. */
    void snapshotLoad(SnapshotReader &r) override;
    /// @}

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    /**
     * The immutable page set a snapshot publishes: a PageMap of the same
     * shape as the machine's own, so a lookup is the same two indexings
     * and a walk is in ascending frame order. Never mutated once
     * published.
     */
    struct SnapshotImage
    {
        explicit SnapshotImage(std::size_t frames) : pages(frames) {}

        PageMap<std::shared_ptr<const Page>> pages;
        std::size_t count = 0; //!< occupied slots in pages
    };

    Page &pageFor(Addr pa);
    Page &pageForZero(Addr pa);
    const Page *pageForRead(Addr pa) const;
    void checkRange(Addr pa, Addr len) const;
    void cachePrivate(Addr frame, Page *pg) const;
    void invalidateCaches() const;
    std::size_t frameIndex(Addr frame) const { return (frame - base_) >> kPageShift; }

    Addr base_;
    Addr size_;
    /** Machine-private pages, by frame index. */
    PageMap<std::unique_ptr<Page>> pages_;
    std::size_t privatePages_ = 0;

    /** Shared snapshot image this PhysMem reads through (null before any
     *  snapshot). Read-only; shared with every clone of the snapshot. */
    std::shared_ptr<const SnapshotImage> image_;

    std::uint64_t cowFaults_ = 0;

    /**
     * Last pages touched: accesses cluster heavily (code fetch, stack, the
     * active buffer), so these turn most lookups into one compare.
     * Private pages live as long as the PhysMem and never move, and image
     * pages live as long as the image_ reference, so cached pointers stay
     * good until the maps change. The write cache only ever holds private
     * pages; the read cache may hold a shared image page, which is why the
     * two are separate — a write to a read-cached shared page must still
     * take the COW fault path.
     */
    mutable Addr cachedFrame_ = ~static_cast<Addr>(0);
    mutable Page *cachedPage_ = nullptr;
    mutable Addr readFrame_ = ~static_cast<Addr>(0);
    mutable const Page *readPage_ = nullptr;
};

} // namespace kvmarm

#endif // KVMARM_MEM_PHYS_MEM_HH
