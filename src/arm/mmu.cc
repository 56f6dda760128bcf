#include "arm/mmu.hh"

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "sim/logging.hh"

namespace kvmarm::arm {

namespace {

/** All-permissive Stage-1 identity permissions (MMU off). */
Perms
identityPerms()
{
    Perms p;
    p.user = true;
    return p;
}

bool
checkS1Perms(const Perms &p, Access acc, Mode mode)
{
    if (mode == Mode::Usr && !p.user)
        return false;
    switch (acc) {
      case Access::Read:
        return p.read;
      case Access::Write:
        return p.write;
      case Access::Exec:
        return p.exec;
    }
    return false;
}

bool
checkS2Perms(const Perms &p, Access acc)
{
    switch (acc) {
      case Access::Read:
      case Access::Exec:
        return p.read;
      case Access::Write:
        return p.write;
    }
    return false;
}

} // namespace

Mmu::Mmu(ArmCpu &cpu) : cpu_(cpu), ram_(cpu.machine().ram())
{
}

const TlbEntry *
Mmu::microLookup(const TlbKey &key, Access acc)
{
    MicroTlbEntry &m = acc == Access::Exec ? microCode_ : microData_;
    if (m.valid && m.epoch == tlb_.epoch() && m.key == key)
        return &m.entry;
    return nullptr;
}

void
Mmu::microFill(const TlbKey &key, const TlbEntry &entry, Access acc)
{
    MicroTlbEntry &m = acc == Access::Exec ? microCode_ : microData_;
    m.key = key;
    m.entry = entry;
    m.epoch = tlb_.epoch();
    m.valid = true;
}

TranslateResult
Mmu::walkStage2(Addr ipa, Access acc, Cycles &cost)
{
    TranslateResult res;
    const ArmCostModel &cm = cpu_.machine().cost();
    PhysMem &ram = cpu_.machine().ram();

    Addr root = cpu_.hyp().vttbr & desc::kAddrMask;
    if (!root)
        panic("Mmu: Stage-2 enabled with no VTTBR programmed");

    WalkResult wr = walkTable(
        root, ipa, PtFormat::Stage2,
        [&](Addr table_pa) -> std::optional<std::uint64_t> {
            if (!ram.contains(table_pa, 8))
                return std::nullopt;
            cost += Bus::kRamLatency + cm.walkPerLevel;
            return ram.read(table_pa, 8);
        });

    if (!wr.ok()) {
        res.stage2 = true;
        res.fault = wr.fault;
        res.faultAddr = ipa;
        res.level = wr.level;
        return res;
    }
    if (!checkS2Perms(wr.perms, acc)) {
        res.stage2 = true;
        res.fault = FaultType::Permission;
        res.faultAddr = ipa;
        res.level = wr.level;
        return res;
    }
    res.ok = true;
    res.pa = wr.pa;
    res.device = wr.perms.device;
    res.perms = wr.perms;
    return res;
}

TranslateResult
Mmu::stage2Translate(Addr ipa, Access acc)
{
    Cycles cost = 0;
    TranslateResult r = walkStage2(ipa, acc, cost);
    r.cost = cost;
    return r;
}

TranslateResult
Mmu::translateHyp(Addr va, Access acc)
{
    TranslateResult res;
    const ArmCostModel &cm = cpu_.machine().cost();
    PhysMem &ram = cpu_.machine().ram();

    if (!cpu_.hyp().hsctlrM) {
        res.ok = true;
        res.pa = va;
        res.device = !ram.contains(va);
        return res;
    }

    TlbKey key{TlbRegime::Hyp, 0, 0, pageAlignDown(va)};
    if (const TlbEntry *e = microLookup(key, acc)) {
        // Fast path: same page as the last Hyp access of this kind. Taken
        // only when the access succeeds; permission problems fall through
        // to the full lookup for precise fault reporting.
        if (checkS1Perms(e->s1Perms, acc, Mode::Hyp)) {
            tlb_.countHit();
            res.ok = true;
            res.pa = e->ppage | (va & (kPageSize - 1));
            res.device = e->device;
            return res;
        }
    }
    if (const TlbEntry *e = tlb_.lookup(key)) {
        tlb_.countHit();
        if (!checkS1Perms(e->s1Perms, acc, Mode::Hyp)) {
            res.fault = FaultType::Permission;
            res.faultAddr = va;
            return res;
        }
        microFill(key, *e, acc);
        res.ok = true;
        res.pa = e->ppage | (va & (kPageSize - 1));
        res.device = e->device;
        return res;
    }
    tlb_.countMiss();

    Cycles cost = 0;
    WalkResult wr = walkTable(
        cpu_.hyp().httbr, va, PtFormat::HypLpae,
        [&](Addr table_pa) -> std::optional<std::uint64_t> {
            if (!ram.contains(table_pa, 8))
                return std::nullopt;
            cost += Bus::kRamLatency + cm.walkPerLevel;
            return ram.read(table_pa, 8);
        });
    res.cost = cost;

    if (!wr.ok()) {
        res.fault = wr.fault;
        res.faultAddr = va;
        res.level = wr.level;
        return res;
    }
    if (!checkS1Perms(wr.perms, acc, Mode::Hyp)) {
        res.fault = FaultType::Permission;
        res.faultAddr = va;
        return res;
    }

    TlbEntry entry;
    entry.ppage = pageAlignDown(wr.pa);
    entry.s1Perms = wr.perms;
    entry.device = wr.perms.device;
    tlb_.insert(key, entry);
    microFill(key, entry, acc); // after insert: epoch may have moved

    res.ok = true;
    res.pa = wr.pa;
    res.device = wr.perms.device;
    return res;
}

TlbKey
Mmu::pl1Key(Addr va) const
{
    const RegisterFile &regs = cpu_.regs();
    bool s1_on = regs[CtrlReg::SCTLR] & 1;
    bool s2_on = cpu_.hyp().hcr.vm;
    std::uint8_t vmid = s2_on ? std::uint8_t(cpu_.hyp().vmid()) : 0;
    std::uint32_t asid = s1_on ? regs[CtrlReg::CONTEXTIDR] : 0;
    return {TlbRegime::Pl0Pl1, vmid, asid, pageAlignDown(va)};
}

std::uint8_t *
Mmu::hostAccess(Addr va, unsigned len, Access acc, Mode mode,
                Tlb::Probe &probe)
{
    if (mode == Mode::Hyp)
        return nullptr;
    const TlbKey key = pl1Key(va);
    probe = tlb_.probe(key);
    if (probe.hit == Tlb::kNone)
        return nullptr;
    const PhysMem::HostPage &h = tlb_.hostPage(probe.hit);
    const Addr off = va & (kPageSize - 1);
    const TlbEntry &e = tlb_.entry(probe.hit);
    if (!h.bytes || !ram_.current(h) || (acc == Access::Write && !h.priv) ||
        off + len > kPageSize || !checkS1Perms(e.s1Perms, acc, mode) ||
        (e.hasStage2 && !checkS2Perms(e.s2Perms, acc)))
        return nullptr;
    // translate()'s TLB hit, less the TranslateResult. A private page is
    // a non-const object, so writing through it is sound.
    tlb_.countHit();
    microFill(key, e, acc);
    return const_cast<std::uint8_t *>(h.bytes) + off;
}

TranslateResult
Mmu::translate(Addr va, Access acc, Mode mode, const Tlb::Probe *probe)
{
    if (mode == Mode::Hyp)
        return translateHyp(va, acc);

    TranslateResult res;
    const ArmCostModel &cm = cpu_.machine().cost();
    PhysMem &ram = cpu_.machine().ram();
    const RegisterFile &regs = cpu_.regs();

    bool s1_on = regs[CtrlReg::SCTLR] & 1;
    bool s2_on = cpu_.hyp().hcr.vm;

    // No micro-TLB lookup here: the probe answers what it would (a micro
    // entry is valid only while the slot it copies is unchanged), and a
    // hit refills it with the same key, entry and epoch.
    const TlbKey key = pl1Key(va);
    const Tlb::Probe p = probe ? *probe : tlb_.probe(key);
    if (p.hit != Tlb::kNone) {
        const TlbEntry &e = tlb_.entry(p.hit);
        if (!checkS1Perms(e.s1Perms, acc, mode)) {
            tlb_.countHit();
            res.fault = FaultType::Permission;
            res.faultAddr = va;
            res.level = 3;
            return res;
        }
        if (e.hasStage2 && !checkS2Perms(e.s2Perms, acc)) {
            // Rare: fall through to a full walk so the Stage-2 fault is
            // reported with precise IPA/level information.
        } else {
            tlb_.countHit();
            microFill(key, e, acc);
            res.ok = true;
            res.pa = e.ppage | (va & (kPageSize - 1));
            res.device = e.device;
            res.slot = p.hit;
            return res;
        }
    }
    tlb_.countMiss();

    Cycles cost = 0;
    Addr ipa = va;
    Perms s1_perms = identityPerms();

    if (s1_on) {
        // Two table base registers: the familiar split between the user
        // address space (TTBR0) and the kernel address space (TTBR1),
        // paper §3.1. TTBCR == 0 disables the split.
        Addr root;
        if (regs[CtrlReg::TTBCR] != 0 && va >= ArmCpu::kKernelSplit)
            root = regs.read64(CtrlReg::TTBR1Lo, CtrlReg::TTBR1Hi) &
                   desc::kAddrMask;
        else
            root = regs.read64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi) &
                   desc::kAddrMask;

        TranslateResult nested_fault;
        bool have_nested_fault = false;

        WalkResult wr = walkTable(
            root, va, PtFormat::KernelLpae,
            [&](Addr table_ipa) -> std::optional<std::uint64_t> {
                Addr table_pa = table_ipa;
                if (s2_on) {
                    TranslateResult r2 =
                        walkStage2(table_ipa, Access::Read, cost);
                    if (!r2.ok) {
                        nested_fault = r2;
                        have_nested_fault = true;
                        return std::nullopt;
                    }
                    table_pa = r2.pa;
                }
                if (!ram.contains(table_pa, 8))
                    return std::nullopt;
                cost += Bus::kRamLatency + cm.walkPerLevel;
                return ram.read(table_pa, 8);
            });

        if (have_nested_fault) {
            nested_fault.cost = cost;
            return nested_fault;
        }
        if (!wr.ok()) {
            res.fault = wr.fault;
            res.faultAddr = va;
            res.level = wr.level;
            res.cost = cost;
            return res;
        }
        s1_perms = wr.perms;
        ipa = wr.pa;
        if (!checkS1Perms(s1_perms, acc, mode)) {
            res.fault = FaultType::Permission;
            res.faultAddr = va;
            res.level = wr.level;
            res.cost = cost;
            return res;
        }
    }

    Perms s2_perms = identityPerms();
    Addr pa = ipa;
    bool device = s1_perms.device;
    if (s2_on) {
        TranslateResult r2 = walkStage2(ipa, acc, cost);
        if (!r2.ok) {
            r2.cost = cost;
            return r2;
        }
        pa = r2.pa;
        device = device || r2.device;
        s2_perms = r2.perms;
    }

    TlbEntry entry;
    entry.ppage = pageAlignDown(pa);
    entry.s1Perms = s1_on ? s1_perms : identityPerms();
    entry.s2Perms = s2_perms;
    entry.hasStage2 = s2_on;
    entry.device = device;
    res.slot = tlb_.insert(p, key, entry);
    microFill(key, entry, acc); // after insert: epoch may have moved

    res.ok = true;
    res.pa = pa;
    res.device = device;
    res.cost = cost;
    return res;
}

} // namespace kvmarm::arm
