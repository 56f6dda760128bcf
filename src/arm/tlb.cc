#include "arm/tlb.hh"

namespace kvmarm::arm {

namespace {

/** Largest power of two <= @p n (n >= 1). */
std::size_t
floorPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p * 2 <= n)
        p *= 2;
    return p;
}

} // namespace

Tlb::Tlb(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    ways_ = capacity < 4 ? capacity : 4;
    numSets_ = floorPow2(capacity / ways_ ? capacity / ways_ : 1);
    setMask_ = numSets_ - 1;
    slots_.resize(numSets_ * ways_);
    views_.resize(slots_.size());
    nextWay_.resize(numSets_, 0);
}

std::size_t
Tlb::insert(const Probe &p, const TlbKey &key, const TlbEntry &entry)
{
    // The probe found, in order of preference: the existing tagging of
    // this key (update in place, replacement order unchanged) or any
    // invalid slot to fill.
    std::size_t i = p.hit;
    if (i != kNone) {
        ++epoch_; // a cached copy of the old mapping is now stale
    } else if (p.free != kNone) {
        i = p.free;
    } else {
        // Set full: FIFO within the set, as the old fully-associative
        // implementation evicted oldest-first within its capacity.
        const std::size_t si = p.set / ways_;
        std::uint8_t w = nextWay_[si];
        nextWay_[si] = static_cast<std::uint8_t>((w + 1) % ways_);
        i = p.set + w;
        ++epoch_; // eviction: a cached copy of the victim is now stale
    }
    Slot &s = slots_[i];
    s.key = key;
    s.entry = entry;
    s.globalGen = globalGen_;
    s.vmidGen = vmidGen_[key.vmid];
    // The old target, whether rewritten, evicted or left by a flush, is
    // not this entry's until the next full-path access says so.
    views_[i] = {};
    return i;
}

void
Tlb::flushAll()
{
    ++globalGen_;
    ++epoch_;
}

void
Tlb::flushVmid(std::uint8_t vmid)
{
    ++vmidGen_[vmid];
    ++epoch_;
}

void
Tlb::flushVa(Addr vpage)
{
    // Every tagging of this VA (any regime/VMID/ASID) indexes to the same
    // set; invalidate them by clearing the slot's generation.
    Slot *set = &slots_[setIndex(vpage) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].key.vpage == vpage)
            set[w].globalGen = 0;
    }
    ++epoch_;
}

std::size_t
Tlb::size() const
{
    std::size_t n = 0;
    for (const Slot &s : slots_)
        n += valid(s) ? 1 : 0;
    return n;
}

} // namespace kvmarm::arm
