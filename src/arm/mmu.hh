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

    /** Translate @p va for an access of kind @p acc in mode @p mode. */
    TranslateResult translate(Addr va, Access acc, Mode mode);

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
    TranslateResult walkStage2(Addr ipa, Access acc, Cycles &cost);

    const TlbEntry *microLookup(const TlbKey &key, Access acc);
    void microFill(const TlbKey &key, const TlbEntry &entry, Access acc);

    ArmCpu &cpu_;
    Tlb tlb_;
    MicroTlbEntry microCode_;
    MicroTlbEntry microData_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_MMU_HH
