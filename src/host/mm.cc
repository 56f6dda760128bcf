#include "host/mm.hh"

#include "check/invariants.hh"
#include "sim/logging.hh"
#include "sim/machine_base.hh"

namespace kvmarm::host {

Mm::Mm(PhysMem &ram, MachineBase *machine)
    : Snapshottable(machine, "mm"), ram_(ram), machine_(machine),
      checkEngine_(machine && machine->checkEngine()
                       ? machine->checkEngine()
                       : check::processEngine()),
      // Allocate high-to-low so early allocations (kernel page tables)
      // come from the top of RAM, away from guest RAM bases.
      top_(ram.base() + ram.size() / kPageSize * kPageSize)
{
}

Addr
Mm::allocPage()
{
    Addr pa;
    if (!freed_.empty()) {
        pa = freed_.back();
        freed_.pop_back();
    } else if (top_ > ram_.base()) {
        top_ -= kPageSize;
        pa = top_;
    } else {
        fatal("host::Mm: out of memory (%zu pages in use)", usedPages());
    }
    ram_.zeroPage(pa);
    refcounts_[pa] = 1;
    return pa;
}

void
Mm::getPage(Addr pa)
{
    auto it = refcounts_.find(pageAlignDown(pa));
    if (it == refcounts_.end())
        panic("host::Mm::getPage on free page %#llx", static_cast<unsigned long long>(pa));
    ++it->second;
}

void
Mm::putPage(Addr pa)
{
    pa = pageAlignDown(pa);
    auto it = refcounts_.find(pa);
    if (it == refcounts_.end())
        panic("host::Mm::putPage on free page %#llx", static_cast<unsigned long long>(pa));
    if (--it->second == 0) {
        refcounts_.erase(it);
        freed_.push_back(pa);
    }
}

unsigned
Mm::refcount(Addr pa) const
{
    auto it = refcounts_.find(pageAlignDown(pa));
    return it == refcounts_.end() ? 0 : it->second;
}

Addr
Mm::getUserPages()
{
    return allocPage();
}

} // namespace kvmarm::host
