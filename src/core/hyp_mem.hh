/**
 * @file
 * Hyp-mode memory management (paper §3.1): Hyp mode has its own address
 * space with its own page table format, so the host kernel's tables cannot
 * be reused. The highvisor explicitly builds Hyp-format tables mapping the
 * code and data the lowvisor touches — at the same virtual addresses as in
 * kernel mode — plus the device interfaces the world switch accesses.
 */

#ifndef KVMARM_CORE_HYP_MEM_HH
#define KVMARM_CORE_HYP_MEM_HH

#include "arm/pagetable.hh"
#include "host/mm.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {
class ArmCpu;
class ArmMachine;
} // namespace kvmarm::arm

namespace kvmarm::core {

/** Builder/owner of the Hyp-mode Stage-1 tables (shared by all CPUs). */
class HypMem : public Snapshottable
{
  public:
    HypMem(arm::ArmMachine &machine, host::Mm &mm);
    ~HypMem();

    HypMem(const HypMem &) = delete;
    HypMem &operator=(const HypMem &) = delete;

    /** Build the tables (idempotent): identity map RAM (Hyp code/data and
     *  the structures shared with the highvisor live at kernel virtual
     *  addresses == physical addresses in this model) and the GIC
     *  regions the world switch programs. */
    void build();

    /** Program HTTBR/HSCTLR on @p cpu (per-CPU part of KVM init). */
    void enableOnCpu(arm::ArmCpu &cpu);

    Addr root() const { return root_; }

    /// @name Snapshottable
    ///
    /// Table *contents* live in machine RAM and come back with the RAM
    /// image; what is serialized here is the ownership bookkeeping (root,
    /// table-page list, in allocation order). snapshotLoad() replays the
    /// page-protection invariant events so the restoring machine's engine
    /// tracks the restored table set, not the construction-time one.
    /// @{
    template <class V>
    void
    visit(V &v)
    {
        v.pod(root_);
        v.seq(pages_);
    }
    void snapshotSave(SnapshotWriter &w) override { visit(w); }
    void snapshotLoad(SnapshotReader &r) override;
    /// @}

  private:
    arm::ArmMachine &machine_;
    host::Mm &mm_;
    Addr root_ = 0;
    std::vector<Addr> pages_;
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_HYP_MEM_HH
