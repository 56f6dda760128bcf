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

std::optional<std::uint64_t>
Mmu::readDescriptor(Addr table_pa, Cycles &cost) const
{
    if (!ram_.contains(table_pa, 8))
        return std::nullopt;
    cost += Bus::kRamLatency + cpu_.machine().cost().walkPerLevel;
    return ram_.read(table_pa, 8);
}

TranslateResult
Mmu::walkStage2(Addr ipa, Access acc, Cycles &cost, Perms *perms)
{
    TranslateResult res;

    Addr root = cpu_.hyp().vttbr & desc::kAddrMask;
    if (!root)
        panic("Mmu: Stage-2 enabled with no VTTBR programmed");

    WalkResult wr = walkTable(
        root, ipa, PtFormat::Stage2,
        [&](Addr table_pa) { return readDescriptor(table_pa, cost); });

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
    if (perms)
        *perms = wr.perms;
    return res;
}

bool
Mmu::tlbKey(Addr va, Mode mode, TlbKey &key) const
{
    if (mode == Mode::Hyp) {
        key = {TlbRegime::Hyp, 0, 0, pageAlignDown(va)};
        return cpu_.hyp().hsctlrM;
    }
    const RegisterFile &regs = cpu_.regs();
    bool s1_on = regs[CtrlReg::SCTLR] & 1;
    bool s2_on = cpu_.hyp().hcr.vm;
    std::uint8_t vmid = s2_on ? std::uint8_t(cpu_.hyp().vmid()) : 0;
    std::uint32_t asid = s1_on ? regs[CtrlReg::CONTEXTIDR] : 0;
    key = {TlbRegime::Pl0Pl1, vmid, asid, pageAlignDown(va)};
    return true;
}

const Tlb::View *
Mmu::slotView(Addr va, Access acc, Mode mode, Tlb::Probe &probe)
{
    TlbKey key;
    if (!tlbKey(va, mode, key))
        return nullptr;
    probe = tlb_.probe(key);
    if (probe.hit == Tlb::kNone)
        return nullptr;
    const TlbEntry &e = tlb_.entry(probe.hit);
    if (!checkS1Perms(e.s1Perms, acc, mode) ||
        (e.hasStage2 && !checkS2Perms(e.s2Perms, acc)))
        return nullptr;
    const Tlb::View &v = tlb_.view(probe.hit);
    if (v.ram.bytes) {
        // A write goes only through a private page.
        if (ram_.current(v.ram) && (acc != Access::Write || v.ram.priv))
            return &v;
    } else if (v.dev.dev &&
               (e.ppage | (va & (kPageSize - 1))) - v.dev.base < v.dev.size) {
        return &v; // the page may hold other regions, or none
    }
    return nullptr;
}

TranslateResult
Mmu::translate(Addr va, Access acc, Mode mode, const Tlb::Probe *probe)
{
    TranslateResult res;
    TlbKey key;
    if (!tlbKey(va, mode, key)) {
        // Hyp mode with its MMU off: the identity, and no TLB.
        res.ok = true;
        res.pa = va;
        return res;
    }

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
            res.ok = true;
            res.pa = e.ppage | (va & (kPageSize - 1));
            res.slot = p.hit;
            return res;
        }
    }
    tlb_.countMiss();

    // The walks change nothing in the TLB, so the probe still holds.
    TlbEntry entry;
    if (mode == Mode::Hyp ? walkHyp(va, acc, res, entry)
                          : walkPl1(va, acc, mode, res, entry))
        res.slot = tlb_.insert(p, key, entry);
    return res;
}

bool
Mmu::walkHyp(Addr va, Access acc, TranslateResult &res, TlbEntry &entry)
{
    Cycles cost = 0;
    WalkResult wr = walkTable(
        cpu_.hyp().httbr, va, PtFormat::HypLpae,
        [&](Addr table_pa) { return readDescriptor(table_pa, cost); });
    res.cost = cost;

    if (!wr.ok()) {
        res.fault = wr.fault;
        res.faultAddr = va;
        res.level = wr.level;
        return false;
    }
    if (!checkS1Perms(wr.perms, acc, Mode::Hyp)) {
        res.fault = FaultType::Permission;
        res.faultAddr = va;
        return false;
    }

    entry.ppage = pageAlignDown(wr.pa);
    entry.s1Perms = wr.perms;
    res.ok = true;
    res.pa = wr.pa;
    return true;
}

bool
Mmu::walkPl1(Addr va, Access acc, Mode mode, TranslateResult &res,
             TlbEntry &entry)
{
    const RegisterFile &regs = cpu_.regs();

    bool s1_on = regs[CtrlReg::SCTLR] & 1;
    bool s2_on = cpu_.hyp().hcr.vm;

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
                return readDescriptor(table_pa, cost);
            });

        if (have_nested_fault) {
            nested_fault.cost = cost;
            res = nested_fault;
            return false;
        }
        if (!wr.ok()) {
            res.fault = wr.fault;
            res.faultAddr = va;
            res.level = wr.level;
            res.cost = cost;
            return false;
        }
        s1_perms = wr.perms;
        ipa = wr.pa;
        if (!checkS1Perms(s1_perms, acc, mode)) {
            res.fault = FaultType::Permission;
            res.faultAddr = va;
            res.level = wr.level;
            res.cost = cost;
            return false;
        }
    }

    Perms s2_perms = identityPerms();
    Addr pa = ipa;
    if (s2_on) {
        TranslateResult r2 = walkStage2(ipa, acc, cost, &s2_perms);
        if (!r2.ok) {
            r2.cost = cost;
            res = r2;
            return false;
        }
        pa = r2.pa;
    }

    entry.ppage = pageAlignDown(pa);
    entry.s1Perms = s1_on ? s1_perms : identityPerms();
    entry.s2Perms = s2_perms;
    entry.hasStage2 = s2_on;

    res.ok = true;
    res.pa = pa;
    res.cost = cost;
    return true;
}

} // namespace kvmarm::arm
