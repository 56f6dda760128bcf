/**
 * @file
 * The Table 3 micro-benchmarks on the x86 comparison machines (laptop and
 * server calibrations), mirroring workload/microbench.hh; the ARM and x86
 * columns share the Table 3 loops in workload/microbench.cc.
 */

#ifndef KVMARM_WORKLOAD_MICROBENCH_X86_HH
#define KVMARM_WORKLOAD_MICROBENCH_X86_HH

#include "workload/microbench.hh"
#include "x86/machine.hh"

namespace kvmarm::wl {

struct X86MicroSetup
{
    x86::X86Platform platform = x86::X86Platform::Laptop;
    unsigned iterations = 64;
};

/** Run the x86 micro-benchmarks under the KVM x86-style hypervisor. */
MicroResults runX86Microbench(const X86MicroSetup &setup);

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_MICROBENCH_X86_HH
