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
    nextWay_.resize(numSets_, 0);
}

const TlbEntry *
Tlb::lookup(const TlbKey &key) const
{
    const Slot *set = &slots_[setIndex(key.vpage) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].key == key && valid(set[w]))
            return &set[w].entry;
    }
    return nullptr;
}

void
Tlb::insert(const TlbKey &key, const TlbEntry &entry)
{
    const std::size_t si = setIndex(key.vpage);
    Slot *set = &slots_[si * ways_];

    // One probe finds, in order of preference: the existing tagging of
    // this key (update in place, replacement order unchanged) or any
    // invalid slot to fill.
    Slot *victim = nullptr;
    for (std::size_t w = 0; w < ways_; ++w) {
        if (!valid(set[w])) {
            if (!victim)
                victim = &set[w];
            continue;
        }
        if (set[w].key == key) {
            set[w].entry = entry;
            ++epoch_; // a cached copy of the old mapping is now stale
            return;
        }
    }
    if (!victim) {
        // Set full: FIFO within the set, as the old fully-associative
        // implementation evicted oldest-first within its capacity.
        std::uint8_t w = nextWay_[si];
        nextWay_[si] = static_cast<std::uint8_t>((w + 1) % ways_);
        victim = &set[w];
        ++epoch_; // eviction: a cached copy of the victim is now stale
    }
    victim->key = key;
    victim->entry = entry;
    victim->globalGen = globalGen_;
    victim->vmidGen = vmidGen_[key.vmid];
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
