/**
 * @file
 * Flat two-level map from page index to a per-page slot.
 *
 * A directory with one entry per 2 MiB points to 512-slot leaves, each
 * allocated on first touch, so a lookup is two array indexings with no
 * hashing and no allocation, and a sparse 2 GiB range costs one leaf per
 * 2 MiB actually used. Iteration runs in ascending page order, so anything
 * that walks the map (snapshots, teardown, invariant replay) is
 * deterministic without sorting.
 *
 * Used for guest-physical RAM pages (PhysMem, its snapshot image) and for
 * a VM's IPA -> host page bookkeeping (Stage2Mmu).
 */

#ifndef KVMARM_MEM_PAGE_MAP_HH
#define KVMARM_MEM_PAGE_MAP_HH

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace kvmarm {

/**
 * Page index -> @p Slot over [0, pages). A slot is occupied when it tests
 * true (a non-null pointer, an engaged optional); value-initialized slots
 * are empty. Callers range-check indices.
 */
template <class Slot>
class PageMap
{
  public:
    static constexpr unsigned kLeafShift = 9; //!< 512 x 4 KiB = 2 MiB
    static constexpr std::size_t kLeafSlots = std::size_t(1) << kLeafShift;

    explicit PageMap(std::size_t pages)
        : dir_((pages + kLeafSlots - 1) >> kLeafShift)
    {
    }

    /** Deep copy: every leaf is copied slot by slot. */
    PageMap(const PageMap &o) : dir_(o.dir_.size())
    {
        for (std::size_t d = 0; d < dir_.size(); ++d) {
            if (o.dir_[d])
                dir_[d] = std::make_unique<Leaf>(*o.dir_[d]);
        }
    }
    PageMap &operator=(const PageMap &) = delete;

    /** Slot of page @p i, or null if its leaf was never touched. */
    Slot *
    find(std::size_t i)
    {
        Leaf *leaf = dir_[i >> kLeafShift].get();
        return leaf ? &(*leaf)[i & (kLeafSlots - 1)] : nullptr;
    }
    const Slot *
    find(std::size_t i) const
    {
        const Leaf *leaf = dir_[i >> kLeafShift].get();
        return leaf ? &(*leaf)[i & (kLeafSlots - 1)] : nullptr;
    }

    /** Slot of page @p i, allocating its (empty) leaf on first touch. */
    Slot &
    at(std::size_t i)
    {
        std::unique_ptr<Leaf> &leaf = dir_[i >> kLeafShift];
        if (!leaf)
            leaf = std::make_unique<Leaf>();
        return (*leaf)[i & (kLeafSlots - 1)];
    }

    /** Call @p f(index, slot) for every occupied slot, ascending. */
    template <class F>
    void
    forEach(F &&f)
    {
        each(*this, f);
    }
    template <class F>
    void
    forEach(F &&f) const
    {
        each(*this, f);
    }

    /** Drop every leaf (and so every slot). */
    void
    clear()
    {
        for (std::unique_ptr<Leaf> &leaf : dir_)
            leaf.reset();
    }

  private:
    using Leaf = std::array<Slot, kLeafSlots>;

    template <class Self, class F>
    static void each(Self &self, F &f)
    {
        for (std::size_t d = 0; d < self.dir_.size(); ++d) {
            if (!self.dir_[d])
                continue;
            auto &leaf = *self.dir_[d];
            for (std::size_t s = 0; s < kLeafSlots; ++s) {
                if (leaf[s])
                    f((d << kLeafShift) | s, leaf[s]);
            }
        }
    }

    std::vector<std::unique_ptr<Leaf>> dir_;
};

} // namespace kvmarm

#endif // KVMARM_MEM_PAGE_MAP_HH
