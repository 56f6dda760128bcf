/**
 * @file
 * A simple unified TLB caching completed translations (combined Stage-1 +
 * Stage-2), tagged by regime, VMID and ASID as on hardware.
 *
 * Implemented as a fixed-size set-associative array indexed by page number,
 * with per-set FIFO (round-robin) replacement. Flushes are O(1): entries
 * carry generation tags, and `flushAll`/`flushVmid` invalidate by bumping
 * the matching generation counter instead of erasing entries. `flushVa`
 * touches exactly one set (the index depends only on the page number, so
 * every tagging of a VA lives in the same set).
 *
 * Beside each slot the TLB keeps a host-side view of what a hit on the
 * slot reaches: the bus's decode of its page (Bus::Target), a RAM page
 * or a device region. The CPU fills it after a full-path access through
 * the slot, and it is never snapshotted: a hit with a usable view makes
 * the target's access directly (DESIGN.md §4.6, "TLB slot views").
 */

#ifndef KVMARM_ARM_TLB_HH
#define KVMARM_ARM_TLB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arm/pagetable.hh"
#include "mem/bus.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

/** Translation regime a TLB entry belongs to. */
enum class TlbRegime : std::uint8_t
{
    Pl0Pl1, //!< kernel/user Stage-1 (+ Stage-2 when in a VM)
    Hyp,    //!< Hyp-mode Stage-1
};

struct TlbKey
{
    TlbRegime regime;
    std::uint8_t vmid;
    std::uint32_t asid;
    Addr vpage;

    bool operator==(const TlbKey &) const = default;
};

struct TlbEntry
{
    Addr ppage = 0;
    Perms s1Perms;      //!< Stage-1 permissions (identity when S1 off)
    Perms s2Perms;      //!< Stage-2 permissions (all-allow when S2 off)
    bool hasStage2 = false;
};

/** Set-associative TLB with generation-counter invalidation. */
class Tlb
{
  public:
    explicit Tlb(std::size_t capacity = 256);

    static constexpr std::size_t kNone = ~std::size_t(0);

    /** One scan of the set a key indexes, made before a lookup and reused
     *  by the insert that may follow it (nothing may change the TLB in
     *  between). */
    struct Probe
    {
        std::size_t hit = kNone;  //!< slot validly holding the key
        std::size_t free = kNone; //!< first invalid slot of the set
        std::size_t set = 0;      //!< first slot of the set
    };

    Probe
    probe(const TlbKey &key) const
    {
        Probe p;
        p.set = setIndex(key.vpage) * ways_;
        for (std::size_t i = p.set; i < p.set + ways_; ++i) {
            if (!valid(slots_[i])) {
                if (p.free == kNone)
                    p.free = i;
            } else if (slots_[i].key == key) {
                p.hit = i;
                break;
            }
        }
        return p;
    }

    /** Insert @p key per @p p, its probe; @return the slot it now holds.
     *  Every fill clears the slot's view. */
    std::size_t insert(const Probe &p, const TlbKey &key,
                       const TlbEntry &entry);

    const TlbEntry &entry(std::size_t slot) const { return slots_[slot].entry; }

    /**
     * What a hit on a slot reaches: the target of the CPU's last
     * full-path access through it (Bus::Target), or nothing yet (an
     * empty target). It is good as long as the target is and the slot
     * holds its entry.
     */
    using View = Bus::Target;

    View &view(std::size_t slot) { return views_[slot]; }

    void flushAll();
    void flushVmid(std::uint8_t vmid);
    void flushVa(Addr vpage);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Number of currently valid entries (diagnostics/tests; O(capacity)). */
    std::size_t size() const;

    /** Entries the array can hold (sets x ways). */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Monotonic count of events that may invalidate a previously returned
     * entry: flushes of any kind, evictions, and in-place updates. While
     * it is unchanged, every valid slot still holds the entry it held
     * (ArmCpu fills a slot's view only then).
     */
    std::uint64_t epoch() const { return epoch_; }

    /** Count a lookup outcome (maintained by the MMU). */
    void countHit() { ++hits_; }
    void countHits(std::uint64_t n) { hits_ += n; }
    void countMiss() { ++misses_; }

    /**
     * Snapshot state (the owning Mmu visits it): the whole array — slots,
     * replacement cursors, and generation/epoch counters — so a restored
     * machine's TLB is warm in exactly the origin's state and every future
     * hit/miss/eviction sequence is cycle-identical. The slot and set
     * counts pin the geometry. Views are not state and are not visited;
     * a restore clears them all, since a device view carries no
     * generation that could tell it from the restored slot's.
     */
    template <class V>
    void
    visit(V &v)
    {
        v.fixed(slots_, "TLB slots");
        v.fixed(nextWay_, "TLB sets");
        v.pod(globalGen_, vmidGen_, epoch_, hits_, misses_);
        if constexpr (V::kLoading)
            views_.assign(views_.size(), View{});
    }

  private:
    struct Slot
    {
        TlbKey key{};
        TlbEntry entry{};
        /** Valid iff globalGen == Tlb::globalGen_ and vmidGen ==
         *  Tlb::vmidGen_[key.vmid]. Zero-initialized slots are invalid
         *  because globalGen_ starts at 1 and only increments. */
        std::uint64_t globalGen = 0;
        std::uint64_t vmidGen = 0;
    };

    bool
    valid(const Slot &s) const
    {
        return s.globalGen == globalGen_ && s.vmidGen == vmidGen_[s.key.vmid];
    }

    std::size_t setIndex(Addr vpage) const
    {
        return (vpage >> kPageShift) & setMask_;
    }

    std::size_t numSets_;
    std::size_t ways_;
    std::size_t setMask_;
    std::vector<Slot> slots_;           //!< set-major, numSets_ * ways_
    std::vector<View> views_;           //!< parallel to slots_
    std::vector<std::uint8_t> nextWay_; //!< per-set FIFO replacement cursor
    std::uint64_t globalGen_ = 1;
    std::array<std::uint64_t, 256> vmidGen_{};
    std::uint64_t epoch_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_TLB_HH
