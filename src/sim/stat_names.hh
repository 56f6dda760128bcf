/**
 * @file
 * The declared counter names: every counter any StatGroup may hold.
 *
 * A counter is a slot in this table. Adding one is one line here, kept in
 * byte-wise sorted order (stats.hh checks the order and that no name
 * repeats, and dump() prints in table order). The composed families
 * trap.<ec>, exit.<ec>, exit.<reason> and vmexit.<reason> are listed in
 * full; their id arrays are built from excClassName()/exitReasonName().
 */

#ifndef KVMARM_SIM_STAT_NAMES_HH
#define KVMARM_SIM_STAT_NAMES_HH

#include <string_view>

namespace kvmarm {

inline constexpr std::string_view kStatNames[] = {
    "apic.access",
    "bm.emul",
    "bm.hypercall",
    "bm.iodev",
    "bm.irq",
    "bm.wfi",
    "emul.hlt",
    "emul.hvc.unknown",
    "emul.hypercall",
    "emul.smc",
    "emul.sysreg",
    "emul.tscdeadline",
    "emul.wfi",
    "exit.apic",
    "exit.cp14",
    "exit.cp15",
    "exit.dabt",
    "exit.ept",
    "exit.extint",
    "exit.fp",
    "exit.hlt",
    "exit.hvc",
    "exit.iabt",
    "exit.io",
    "exit.irq",
    "exit.msr",
    "exit.smc",
    "exit.timer",
    "exit.traponly",
    "exit.unknown",
    "exit.vmcall",
    "exit.wfi",
    "fault.ept",
    "fault.stage1",
    "fault.stage2",
    "hlt.native",
    "host.irq.unhandled",
    "irq.injected",
    "irq.toHyp",
    "irq.toKernel",
    "irq.virtual",
    "kvm.kick",
    "kvm.maintenance",
    "kvm.tick",
    "kvmx86.kick",
    "mmio",
    "mmio.decoded",
    "mmio.kernel",
    "mmio.user",
    "mmio.user.gicc",
    "mmio.user.gicd",
    "mmio.vdist",
    "residency.cycles",
    "trap.cp14",
    "trap.cp15",
    "trap.dabt",
    "trap.fp",
    "trap.hvc",
    "trap.iabt",
    "trap.irq",
    "trap.smc",
    "trap.timer",
    "trap.unknown",
    "trap.wfi",
    "vmexit.apic",
    "vmexit.ept",
    "vmexit.extint",
    "vmexit.hlt",
    "vmexit.io",
    "vmexit.msr",
    "vmexit.vmcall",
    "vtimer.hwfire",
    "vtimer.trapped",
    "wfi.native",
    "worldswitch.in",
    "worldswitch.out",
    "x86host.irq.unhandled",
};

} // namespace kvmarm

#endif // KVMARM_SIM_STAT_NAMES_HH
