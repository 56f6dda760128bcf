/**
 * @file
 * Per-CPU MMU: drives Stage-1 and Stage-2 translation for the current
 * execution context, including the nested case (Stage-1 table fetches of a
 * VM are themselves Stage-2 translated), and caches results in a TLB.
 */

#ifndef KVMARM_ARM_MMU_HH
#define KVMARM_ARM_MMU_HH

#include <cstdint>
#include <optional>

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
    Cycles cost = 0; //!< cycles spent walking (0 on a TLB hit)
    /** TLB slot now holding a successful translation (Tlb::kNone for a
     *  fault or for Hyp mode with its MMU off). */
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
     * Translate @p va for an access of kind @p acc in mode @p mode. May
     * pass the set scan slotView() just made for the same access as
     * @p probe.
     */
    TranslateResult translate(Addr va, Access acc, Mode mode,
                              const Tlb::Probe *probe = nullptr);

    /**
     * The fast path (DESIGN.md §4.6, "TLB slot views"). When @p va's TLB
     * slot (@p probe's hit) allows @p acc in @p mode and its view reaches
     * the target — a current RAM page (a private one for a write) or a
     * device region holding @p va's PA — return the view. The caller
     * counts the TLB hit translate() would count, then copies the bytes
     * or calls the device and charges the view's cost. Otherwise change
     * nothing and return null, leaving in @p probe the set scan
     * translate() may reuse.
     */
    const Tlb::View *slotView(Addr va, Access acc, Mode mode,
                              Tlb::Probe &probe);

    Tlb &tlb() { return tlb_; }

    /** Snapshot state (visited inside the owning ArmCpu record). */
    template <class V>
    void
    visit(V &v)
    {
        tlb_.visit(v);
    }

  private:
    /** The TLB key of @p va in @p mode and the current context; false
     *  when the mode's translation uses no TLB (Hyp with HSCTLR.M clear). */
    bool tlbKey(Addr va, Mode mode, TlbKey &key) const;
    /** The miss walks: put the translation or its fault in @p res and,
     *  when it succeeds, the entry to insert in @p entry; @return
     *  res.ok. */
    bool walkHyp(Addr va, Access acc, TranslateResult &res, TlbEntry &entry);
    bool walkPl1(Addr va, Access acc, Mode mode, TranslateResult &res,
                 TlbEntry &entry);
    /** One descriptor fetch of a walk: the 8 bytes at @p table_pa,
     *  charged to @p cost; nullopt (an external abort) outside RAM. */
    std::optional<std::uint64_t> readDescriptor(Addr table_pa,
                                                Cycles &cost) const;
    /** Stage-2 walk of @p ipa; on success puts the leaf's permissions
     *  in @p perms when it is given. */
    TranslateResult walkStage2(Addr ipa, Access acc, Cycles &cost,
                               Perms *perms = nullptr);

    ArmCpu &cpu_;
    const PhysMem &ram_;
    Tlb tlb_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_MMU_HH
