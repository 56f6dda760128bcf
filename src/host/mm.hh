/**
 * @file
 * Host kernel memory management: a page allocator with reference counting
 * over machine RAM. This is the "existing kernel memory allocation, page
 * reference counting and page table manipulation code" the highvisor
 * leverages instead of writing its own allocator (paper §3.3) — a
 * bare-metal hypervisor has to bring its own (src/baremetal does).
 */

#ifndef KVMARM_HOST_MM_HH
#define KVMARM_HOST_MM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::check {
class InvariantEngine;
} // namespace kvmarm::check

namespace kvmarm::host {

/** Page-frame allocator with per-page refcounts. */
class Mm : public Snapshottable
{
  public:
    /**
     * @param machine the machine this allocator belongs to: its snapshots
     *     include the allocator (and the Stage-2 tables built on it), and
     *     the memory-management clients of this allocator (Stage-2, Hyp
     *     page tables) report to its private invariant engine. Null (or a
     *     machine without an engine) falls back to the process facade, so
     *     standalone Mm instances in unit tests keep reporting somewhere
     *     visible.
     */
    explicit Mm(PhysMem &ram, MachineBase *machine = nullptr);

    /** The machine passed at construction (null when standalone). */
    MachineBase *machine() const { return machine_; }

    /** The invariant engine Stage-2/Hyp page-table code reports to.
     *  Never null when invariants are compiled in. */
    check::InvariantEngine *checkEngine() const { return checkEngine_; }

    /** Allocate one zeroed page (refcount 1). Fatal when out of memory. */
    Addr allocPage();

    /** Increment a page's refcount (get_page). */
    void getPage(Addr pa);

    /** Decrement a page's refcount; frees the frame at zero (put_page). */
    void putPage(Addr pa);

    /** Refcount of @p pa, 0 if free. */
    unsigned refcount(Addr pa) const;

    std::size_t
    freePages() const
    {
        return (top_ - ram_.base()) / kPageSize + freed_.size();
    }
    std::size_t usedPages() const { return refcounts_.size(); }

    /**
     * The get_user_pages-shaped service KVM/ARM calls from its Stage-2
     * fault handler: pin and return a fresh page backing one page of a
     * user (VM) address space. In this model user mappings are always
     * populated on demand, so this allocates.
     */
    Addr getUserPages();

    /** Approximate cycle cost of the get_user_pages path. */
    static constexpr Cycles kGetUserPagesCost = 600;

    /** The RAM this allocator manages. */
    PhysMem &ram() { return ram_; }

    /// @name Snapshottable
    ///
    /// The free state is serialized *verbatim*: the watermark `top_` and
    /// the `freed_` stack in push order together decide every future
    /// allocPage() address, so restoring them exactly is what makes a
    /// clone's post-restore allocations bit-identical to the origin's.
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        v.pod(top_);
        v.seq(freed_);
        v.map(refcounts_);
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override { visit(r); }
    /// @}

  private:
    PhysMem &ram_;
    MachineBase *machine_;
    check::InvariantEngine *checkEngine_;
    /// Frames in [ram base, top_) have never been allocated; they are
    /// handed out downwards. Frees go on `freed_`, which is reused LIFO
    /// before the watermark moves. This is exactly the order of one free
    /// list holding every frame ascending, popped from and pushed to the
    /// back: that list is always [base, top_) followed by `freed_`.
    Addr top_;
    std::vector<Addr> freed_;
    std::unordered_map<Addr, unsigned> refcounts_;
};

} // namespace kvmarm::host

#endif // KVMARM_HOST_MM_HH
