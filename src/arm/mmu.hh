/**
 * @file
 * Per-CPU MMU: drives Stage-1 and Stage-2 translation for the current
 * execution context, including the nested case (Stage-1 table fetches of a
 * VM are themselves Stage-2 translated), and caches results in a TLB.
 */

#ifndef KVMARM_ARM_MMU_HH
#define KVMARM_ARM_MMU_HH

#include "arm/modes.hh"
#include "arm/pagetable.hh"
#include "arm/tlb.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmCpu;

/** Outcome of a translation attempt. */
struct TranslateResult
{
    bool ok = false;
    Addr pa = 0;
    bool device = false;
    Cycles cost = 0; //!< cycles spent walking (0 on a TLB hit)
    Perms perms;     //!< leaf permissions of the final stage walked
    /** TLB slot now holding a successful PL0/PL1 translation
     *  (Tlb::kNone for Hyp or a fault). */
    std::size_t slot = Tlb::kNone;

    /// @name Fault information (when !ok)
    /// @{
    bool stage2 = false;   //!< fault belongs to Stage-2 (traps to Hyp)
    FaultType fault = FaultType::None;
    Addr faultAddr = 0;    //!< VA for Stage-1 faults, IPA for Stage-2
    int level = 0;
    /// @}
};

/** MMU of one ArmCpu. */
class Mmu
{
  public:
    explicit Mmu(ArmCpu &cpu);

    /**
     * Translate @p va for an access of kind @p acc in mode @p mode. A
     * PL0/PL1 translation may pass the set scan hostAccess() just made
     * for the same access as @p probe.
     */
    TranslateResult translate(Addr va, Access acc, Mode mode,
                              const Tlb::Probe *probe = nullptr);

    /**
     * The PL0/PL1 RAM fast path (DESIGN.md §4.6, "Host page pointers").
     * When @p va's TLB slot hits, allows @p acc in @p mode and holds a
     * current host page (a private one for a write), and the @p len bytes
     * stay in the page: do what translate() does on that hit (count it,
     * leave the data micro-TLB holding the entry) and return the host
     * address of @p va's bytes, which the caller reads or writes and
     * charges Bus::kRamLatency for. Otherwise change nothing and return
     * null, leaving in @p probe the set scan translate() may reuse (Hyp
     * mode makes none; translate() does not use one there).
     */
    std::uint8_t *hostAccess(Addr va, unsigned len, Access acc, Mode mode,
                             Tlb::Probe &probe);

    /** Stage-2 only translation of an IPA (also used by tests). */
    TranslateResult stage2Translate(Addr ipa, Access acc);

    Tlb &tlb() { return tlb_; }

    /** Snapshot state (visited inside the owning ArmCpu record). */
    template <class V>
    void
    visit(V &v)
    {
        v.pod(microCode_, microData_);
        tlb_.visit(v);
    }

  private:
    /**
     * One-entry "micro-TLB" in front of the set-associative lookup: the
     * last page translated for instruction fetches and the last page for
     * data accesses. Straight-line guest execution stays within a page for
     * long stretches, so most translations are resolved by a key compare.
     *
     * A micro entry is a *copy* of a main-TLB entry, valid only while the
     * TLB's invalidation epoch is unchanged (any flush, eviction or
     * remap bumps it), so it can never outlive the entry it shadows and
     * simulated cycle attribution is identical with or without it.
     */
    struct MicroTlbEntry
    {
        TlbKey key{};
        TlbEntry entry{};
        std::uint64_t epoch = 0;
        bool valid = false;
    };

    TranslateResult translateHyp(Addr va, Access acc);
    /** The PL0/PL1 TLB key of @p va in the current context. */
    TlbKey pl1Key(Addr va) const;
    TranslateResult walkStage2(Addr ipa, Access acc, Cycles &cost);

    const TlbEntry *microLookup(const TlbKey &key, Access acc);
    void microFill(const TlbKey &key, const TlbEntry &entry, Access acc);

    ArmCpu &cpu_;
    const PhysMem &ram_;
    Tlb tlb_;
    MicroTlbEntry microCode_;
    MicroTlbEntry microData_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_MMU_HH
