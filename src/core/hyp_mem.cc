#include "core/hyp_mem.hh"

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "check/invariants.hh"

namespace kvmarm::core {

using arm::ArmMachine;
using arm::Perms;

HypMem::HypMem(arm::ArmMachine &machine, host::Mm &mm)
    : Snapshottable(&machine, "hyp-mem"), machine_(machine), mm_(mm)
{
}

HypMem::~HypMem()
{
    for (Addr pa : pages_) {
        KVMARM_CHECK_ON(mm_.checkEngine(), unprotectPage(&mm_, pa));
        mm_.putPage(pa);
    }
}

void
HypMem::build()
{
    if (root_)
        return;

    // Hyp mode uses a different page table format from kernel mode, so
    // the host kernel's tables cannot simply be reused (paper §3.1); the
    // highvisor builds dedicated Hyp-format tables mapping code and
    // shared data at the same virtual addresses as in kernel mode.
    arm::PageTableEditor editor(
        arm::PtFormat::HypLpae,
        [this](Addr pa) { return mm_.ram().read(pa, 8); },
        [this](Addr pa, std::uint64_t v) { mm_.ram().write(pa, v, 8); },
        [this] {
            Addr pa = mm_.allocPage();
            pages_.push_back(pa);
            KVMARM_CHECK_ON(mm_.checkEngine(),
                            protectPage(&mm_, pa, "hyp-table"));
            return pa;
        });

    root_ = editor.newRoot();

    Perms hyp_mem;
    hyp_mem.user = false;
    for (Addr off = 0; off < machine_.ram().size();
         off += arm::kBlock2MSize) {
        Addr pa = ArmMachine::kRamBase + off;
        editor.mapBlock2M(root_, pa, pa, hyp_mem);
    }

    // Device interfaces the lowvisor programs during world switches.
    Perms dev;
    dev.user = false;
    dev.exec = false;
    dev.device = true;
    editor.map(root_, ArmMachine::kGicdBase, ArmMachine::kGicdBase, dev);
    editor.map(root_, ArmMachine::kGiccBase, ArmMachine::kGiccBase, dev);
    if (machine_.config().hwVgic) {
        editor.map(root_, ArmMachine::kGichBase, ArmMachine::kGichBase, dev);
        editor.map(root_, ArmMachine::kGicvBase, ArmMachine::kGicvBase, dev);
    }
}

void
HypMem::snapshotLoad(SnapshotReader &r)
{
    // Retract whatever tables this instance built (none, on a clone) from
    // the invariant engine, then declare the restored set. No Mm refcount
    // traffic here: Mm's own record carries the allocator state.
    for (Addr pa : pages_)
        KVMARM_CHECK_ON(mm_.checkEngine(), unprotectPage(&mm_, pa));
    visit(r);
    for (Addr pa : pages_)
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        protectPage(&mm_, pa, "hyp-table"));
}

void
HypMem::enableOnCpu(arm::ArmCpu &cpu)
{
    arm::HypState &h = cpu.hypSys("httbr");
    h.httbr = root_;
    h.hsctlrM = true;
}

} // namespace kvmarm::core
