#include "mem/bus.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace kvmarm {

namespace {

/** The first of @p regions that [base, base+size) overlaps, or null. */
template <class R>
const R *
overlapping(const std::vector<R> &regions, Addr base, Addr size)
{
    for (const R &r : regions) {
        if (base < r.base + r.size && base + size > r.base)
            return &r;
    }
    return nullptr;
}

} // namespace

void
Bus::addDevice(Addr base, Addr size, MmioDevice *dev)
{
    if (size == 0 || base + size < base)
        fatal("Bus: bad region for %s", dev->name().c_str());
    if (base < ram_.base() + ram_.size() && base + size > ram_.base())
        fatal("Bus: region for %s overlaps RAM", dev->name().c_str());
    if (const Region *r = overlapping(regions_, base, size)) {
        fatal("Bus: region for %s overlaps %s", dev->name().c_str(),
              r->dev->name().c_str());
    }
    auto pos = std::upper_bound(
        regions_.begin(), regions_.end(), base,
        [](Addr b, const Region &r) { return b < r.base; });
    regions_.insert(pos, {base, size, dev});
}

const Bus::Region *
Bus::regionAt(Addr pa) const
{
    // regions_ is sorted by base and non-overlapping: the only candidate is
    // the last region starting at or below pa.
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), pa,
        [](Addr a, const Region &r) { return a < r.base; });
    if (it == regions_.begin())
        return nullptr;
    --it;
    return pa - it->base < it->size ? &*it : nullptr;
}

void
KvmIoBus::add(Addr base, Addr size, Handler handler)
{
    if (size == 0 || base + size < base) {
        fatal("kvm_io_bus: bad region [%#llx, +%#llx)",
              static_cast<unsigned long long>(base),
              static_cast<unsigned long long>(size));
    }
    if (const Device *d = overlapping(devices_, base, size)) {
        fatal("kvm_io_bus: region [%#llx, +%#llx) overlaps [%#llx, +%#llx)",
              static_cast<unsigned long long>(base),
              static_cast<unsigned long long>(size),
              static_cast<unsigned long long>(d->base),
              static_cast<unsigned long long>(d->size));
    }
    devices_.push_back({base, size, std::move(handler)});
}

KvmIoBus::Handler *
KvmIoBus::find(Addr addr, Addr &offset)
{
    for (Device &d : devices_) {
        if (addr - d.base < d.size) {
            offset = addr - d.base;
            return &d.handler;
        }
    }
    return nullptr;
}

} // namespace kvmarm
