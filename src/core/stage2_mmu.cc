#include "core/stage2_mmu.hh"

#include "check/invariants.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::Perms;

Stage2Mmu::Stage2Mmu(host::Mm &mm, std::uint16_t vmid, Addr ipa_ram_base,
                     Addr ipa_ram_size)
    : Snapshottable(mm.machine(), "stage2-" + std::to_string(vmid)), mm_(mm),
      vmid_(vmid), ipaRamBase_(ipa_ram_base), ipaRamSize_(ipa_ram_size),
      editor_(arm::PtFormat::Stage2,
              [this](Addr pa) { return mm_.ram().read(pa, 8); },
              [this](Addr pa, std::uint64_t v) { mm_.ram().write(pa, v, 8); },
              [this] {
                  Addr pa = mm_.allocPage();
                  tablePages_.push_back(pa);
                  KVMARM_CHECK_ON(mm_.checkEngine(),
                                  protectPage(&mm_, pa, "stage2-table"));
                  return pa;
              }),
      ramPages_(pageAlignUp(ipa_ram_size) >> kPageShift)
{
    root_ = editor_.newRoot();
}

Stage2Mmu::~Stage2Mmu()
{
    releaseAll();
}

std::uint64_t
Stage2Mmu::vttbr() const
{
    return root_ | (std::uint64_t(vmid_ & 0xFF) << 48);
}

bool
Stage2Mmu::isGuestRam(Addr ipa) const
{
    return ipa >= ipaRamBase_ && ipa < ipaRamBase_ + ipaRamSize_;
}

bool
Stage2Mmu::handleRamFault(Addr ipa)
{
    if (!isGuestRam(ipa))
        return false;
    Addr page_ipa = pageAlignDown(ipa);
    std::optional<Addr> &slot = ramPages_.at(ramIndex(page_ipa));
    if (slot) {
        // Already mapped: a racing VCPU resolved it; nothing to do.
        return true;
    }
    Addr pa = mm_.getUserPages();
    Perms p;
    p.user = true;
    editor_.map(root_, page_ipa, pa, p);
    slot = pa;
    ++mappedRamPages_;
    KVMARM_CHECK_ON(mm_.checkEngine(),
                    stage2Map(&mm_, vmid_, page_ipa, pa, false));
    return true;
}

void
Stage2Mmu::mapDevicePage(Addr ipa, Addr pa)
{
    Perms p;
    p.user = true;
    p.exec = false;
    p.device = true;
    editor_.map(root_, pageAlignDown(ipa), pageAlignDown(pa), p);
    KVMARM_CHECK_ON(mm_.checkEngine(),
                    stage2Map(&mm_, vmid_, pageAlignDown(ipa),
                              pageAlignDown(pa), true));
}

bool
Stage2Mmu::unmapPage(Addr ipa)
{
    if (!isGuestRam(ipa))
        return false;
    Addr page_ipa = pageAlignDown(ipa);
    std::optional<Addr> *slot = ramPages_.find(ramIndex(page_ipa));
    if (!slot || !*slot)
        return false;
    editor_.unmap(root_, page_ipa);
    KVMARM_CHECK_ON(mm_.checkEngine(),
                    stage2Unmap(&mm_, vmid_, page_ipa, **slot));
    mm_.putPage(**slot);
    slot->reset();
    --mappedRamPages_;
    return true;
}

std::optional<Addr>
Stage2Mmu::ipaToPa(Addr ipa) const
{
    if (!isGuestRam(ipa))
        return std::nullopt;
    const std::optional<Addr> *slot = ramPages_.find(ramIndex(ipa));
    if (!slot || !*slot)
        return std::nullopt;
    return **slot | (ipa & (kPageSize - 1));
}

std::vector<Stage2Mmu::RamMapping>
Stage2Mmu::ramMappings() const
{
    std::vector<RamMapping> ram;
    ram.reserve(mappedRamPages_);
    ramPages_.forEach([&](std::size_t i, const std::optional<Addr> &pa) {
        ram.push_back({ipaRamBase_ + (Addr(i) << kPageShift), *pa});
    });
    return ram;
}

void
Stage2Mmu::setRamMappings(const std::vector<RamMapping> &ram)
{
    ramPages_.clear();
    for (const RamMapping &m : ram)
        ramPages_.at(ramIndex(m.ipa)) = m.pa;
    mappedRamPages_ = ram.size();
}

void
Stage2Mmu::snapshotLoad(SnapshotReader &r)
{
    // Retract this instance's current state from the invariant engine, in
    // IPA order (same rationale as releaseAll), then declare the restored
    // state: protect the table pages before mapping through them,
    // mirroring the live build order. No Mm refcount traffic: Mm's own
    // record carries the allocator state.
    for (const RamMapping &m : ramMappings())
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        stage2Unmap(&mm_, vmid_, m.ipa, m.pa));
    for (Addr pa : tablePages_)
        KVMARM_CHECK_ON(mm_.checkEngine(), unprotectPage(&mm_, pa));
    visit(r);
    for (Addr pa : tablePages_)
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        protectPage(&mm_, pa, "stage2-table"));
    for (const RamMapping &m : ramMappings())
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        stage2Map(&mm_, vmid_, m.ipa, m.pa, false));
}

void
Stage2Mmu::releaseAll()
{
    // Release in IPA order: putPage() pushes onto the free stack in
    // release order, so the order fixes every post-teardown allocation
    // address.
    for (const RamMapping &m : ramMappings()) {
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        stage2Unmap(&mm_, vmid_, m.ipa, m.pa));
        mm_.putPage(m.pa);
    }
    ramPages_.clear();
    mappedRamPages_ = 0;
    for (Addr pa : tablePages_) {
        KVMARM_CHECK_ON(mm_.checkEngine(), unprotectPage(&mm_, pa));
        mm_.putPage(pa);
    }
    tablePages_.clear();
    root_ = 0;
}

} // namespace kvmarm::core
