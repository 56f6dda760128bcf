/**
 * @file
 * Fleet throughput benchmark: aggregate simulator speed when many VMs run
 * concurrently on a host thread pool (DESIGN.md §4.7).
 *
 * An 8-VM mixed-workload fleet — compute-bound, world-switch storm, MMIO
 * storm, and Stage-2 fault storm VMs, with the second half of the fleet
 * doing twice the work so finishing times are deliberately uneven — is run
 * to completion at 1, 2, 4, and 8 host threads. Each VM is one Fleet job:
 * a fully private machine + host kernel + KVM stack, so per-VM simulated
 * cycle counts must be bit-identical at every thread count. The bench
 * enforces that itself (exit code 1 on any divergence) in addition to the
 * ctest determinism test.
 *
 * The whole sweep then repeats under KVMARM_CHECK=enforce ("threads_N_
 * enforce" rows): every VM job's machine builds its own private invariant
 * engine, so the checked hot path takes no locks and enforce-mode scaling
 * can be compared row-for-row against the unchecked sweep. The determinism
 * gate covers the checked rows too — per-VM simulated cycles must be
 * bit-identical across thread counts AND across off vs enforce, because
 * the engine observes and never charges.
 *
 * Printed per thread count: fleet wall seconds, aggregate guest-ops/sec,
 * speedup vs the 1-thread run of the same sweep and mode, and scaling
 * efficiency (speedup / threads). host_cpus is printed because efficiency
 * is bounded by the cores actually available, not the thread count
 * requested. The table is a single run; repeated, compared measurements
 * of fleet speed come from kvmarm_bench (bench/suite). --smoke shrinks
 * the iteration counts; --fleet N sets the fleet size (default 8).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/invariants.hh"
#include "core/kvm_stack.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"

namespace {

using namespace kvmarm;
using arm::ArmCpu;

/** The four VM workload flavors; vm index i runs flavor i % 4. */
enum class Flavor
{
    Compute,     //!< straight-line guest loads (TLB resident)
    WorldSwitch, //!< back-to-back null hypercalls
    Mmio,        //!< stores to an in-kernel emulated device
    Stage2,      //!< every access touches a fresh page
};

const char *
flavorName(Flavor f)
{
    switch (f) {
      case Flavor::Compute: return "compute";
      case Flavor::WorldSwitch: return "wswitch";
      case Flavor::Mmio: return "mmio";
      case Flavor::Stage2: return "stage2";
    }
    return "?";
}

/** Per-flavor full-run iteration counts (scaled per VM, see vmIters). */
struct Iters
{
    std::uint64_t compute = 600'000;
    std::uint64_t worldSwitch = 60'000;
    std::uint64_t mmio = 60'000;
    /** Every iteration touches a fresh page; the doubled back-half walk
     *  (2 × 6144 pages = 48 MiB, starting 4 MiB in) must stay inside the
     *  64 MiB of VM RAM. */
    std::uint64_t stage2 = 6'144;

    void
    smoke()
    {
        compute = 6'000;
        worldSwitch = 600;
        mmio = 600;
        stage2 = 256;
    }
};

struct VmSpec
{
    unsigned index = 0;
    Flavor flavor = Flavor::Compute;
    std::uint64_t iters = 0;
};

/** Mixed fleet: flavors cycle; the back half does double work so the
 *  per-worker load is uneven and job stealing actually engages. */
std::vector<VmSpec>
fleetSpec(unsigned vms, const Iters &it)
{
    std::vector<VmSpec> spec;
    for (unsigned i = 0; i < vms; ++i) {
        VmSpec s;
        s.index = i;
        s.flavor = static_cast<Flavor>(i % 4);
        std::uint64_t base = 0;
        switch (s.flavor) {
          case Flavor::Compute: base = it.compute; break;
          case Flavor::WorldSwitch: base = it.worldSwitch; break;
          case Flavor::Mmio: base = it.mmio; break;
          case Flavor::Stage2: base = it.stage2; break;
        }
        s.iters = base * (1 + i / 4);
        spec.push_back(s);
    }
    return spec;
}

/** What one VM run produced (written by its Fleet job). */
struct VmOutcome
{
    Cycles simCycles = 0;
};

/**
 * One whole-VM job: a private machine + host + KVM stack + 1-VCPU guest
 * running the flavor's storm.
 */
void
runVm(const VmSpec &spec, VmOutcome &out)
{
    core::KvmStack stack({.numCpus = 1, .ramSize = 128 * kMiB, .kvm = {}});

    stack.onCpu(0, [&](ArmCpu &cpu) {
        std::unique_ptr<core::Vm> vm = stack.kvm.createVm(64 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);

        vm->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                            [](bool, Addr, std::uint64_t, unsigned) {
                                return std::uint64_t{0};
                            });

        vcpu.run(cpu, [&](ArmCpu &c) {
            const std::uint64_t n = spec.iters;
            Cycles sim0 = c.now();
            switch (spec.flavor) {
              case Flavor::Compute: {
                  const Addr page = vm->ramBase() + 0x10000;
                  c.memRead(page, 4); // warm: fault + map + TLB fill
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.memRead(page + ((i & 127) * 8), 4);
                  break;
              }
              case Flavor::WorldSwitch: {
                  c.hvc(core::hvc::kTestHypercall); // warm lazy state
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.hvc(core::hvc::kTestHypercall);
                  break;
              }
              case Flavor::Mmio: {
                  c.memWrite(core::Vm::kKernelTestDevBase, 0, 4); // warm
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.memWrite(core::Vm::kKernelTestDevBase,
                                 static_cast<std::uint32_t>(i), 4);
                  break;
              }
              case Flavor::Stage2: {
                  const Addr base = vm->ramBase() + 0x400000;
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.memRead(base + Addr(i) * kPageSize, 4);
                  break;
              }
            }
            out.simCycles = c.now() - sim0;
        });
    });
    stack.machine.run();
}

/** One thread-count point of the sweep. */
struct Result
{
    std::string name;   //!< "threads_N" plus the mode suffix
    std::string suffix; //!< "" (unchecked) or "_enforce"
    unsigned threads = 0;
    std::uint64_t iterations = 0; //!< total guest ops across the fleet
    double wallSeconds = 0;
    double opsPerSec = 0;
    std::uint64_t jobsStolen = 0;
    std::vector<Cycles> vmCycles; //!< per-VM, for the determinism check
};

Result
runFleet(const std::vector<VmSpec> &spec, unsigned threads,
         const std::string &suffix = "")
{
    Result res;
    res.threads = threads;
    res.suffix = suffix;
    res.name = "threads_" + std::to_string(threads) + suffix;

    Fleet fleet(threads);
    std::vector<VmOutcome> outcomes(spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const VmSpec &s = spec[i];
        res.iterations += s.iters;
        fleet.submit(std::string("vm") + std::to_string(s.index) + "-" +
                         flavorName(s.flavor),
                     [&s, &outcomes, i] { runVm(s, outcomes[i]); });
    }

    auto t0 = std::chrono::steady_clock::now();
    fleet.start();
    std::vector<Fleet::JobResult> jobs = fleet.shutdown();
    auto t1 = std::chrono::steady_clock::now();

    for (const Fleet::JobResult &j : jobs) {
        if (!j.ok)
            fatal("fleet_tput: job %s failed: %s", j.name.c_str(),
                  j.error.c_str());
    }
    res.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    res.opsPerSec =
        res.wallSeconds > 0 ? double(res.iterations) / res.wallSeconds : 0;
    res.jobsStolen = fleet.stats().jobsStolen;
    for (const VmOutcome &o : outcomes)
        res.vmCycles.push_back(o.simCycles);
    return res;
}

/** The 1-thread ops/sec of the sweep with the same mode suffix. */
double
opsAtOneThread(const std::vector<Result> &rows, const std::string &suffix)
{
    for (const Result &r : rows)
        if (r.threads == 1 && r.suffix == suffix)
            return r.opsPerSec;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    unsigned vms = 8;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--fleet") == 0 && i + 1 < argc) {
            vms = static_cast<unsigned>(std::atoi(argv[++i]));
        } else {
            std::fprintf(stderr, "usage: fleet_tput [--smoke] [--fleet N]\n");
            return 2;
        }
    }
    if (vms == 0)
        vms = 1;

    setInformEnabled(false);
    Iters it;
    if (smoke)
        it.smoke();
    const std::vector<VmSpec> spec = fleetSpec(vms, it);
    const unsigned threadCounts[] = {1, 2, 4, 8};

    std::vector<Result> current;
    for (unsigned t : threadCounts)
        current.push_back(runFleet(spec, t));

    {
        // Same fleet, every machine's private engine in enforce mode. The
        // scope is opened around the whole sweep: machine engines start in
        // the process mode when each VM job constructs its machine.
        check::ScopedCheckMode enforce(check::CheckMode::Enforce);
        for (unsigned t : threadCounts)
            current.push_back(runFleet(spec, t, "_enforce"));
    }

    std::printf("\n=== Fleet throughput (%u VMs, host_cpus=%u) ===\n", vms,
                std::thread::hardware_concurrency());
    std::printf("%-20s %12s %10s %14s %10s %10s %8s\n", "sweep point",
                "total ops", "wall[s]", "agg ops/sec", "speedup", "effic",
                "stolen");
    for (const Result &r : current) {
        const double ops1 = opsAtOneThread(current, r.suffix);
        double sp = ops1 > 0 ? r.opsPerSec / ops1 : 0;
        std::printf("%-20s %12llu %10.3f %14.0f %9.2fx %9.1f%% %8llu\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.iterations),
                    r.wallSeconds, r.opsPerSec, sp,
                    100.0 * sp / r.threads,
                    static_cast<unsigned long long>(r.jobsStolen));
    }

    // Determinism gate: every VM's simulated cycle count must be identical
    // at every thread count AND in every check mode — the fleet may only
    // change wall-clock time, and the invariant engine may only observe.
    bool deterministic = true;
    for (const Result &r : current) {
        for (std::size_t v = 0; v < r.vmCycles.size(); ++v) {
            if (r.vmCycles[v] != current.front().vmCycles[v]) {
                std::fprintf(stderr,
                             "fleet_tput: DETERMINISM VIOLATION: vm%zu "
                             "sim_cycles %llu at %s vs %llu at %s\n",
                             v,
                             static_cast<unsigned long long>(r.vmCycles[v]),
                             r.name.c_str(),
                             static_cast<unsigned long long>(
                                 current.front().vmCycles[v]),
                             current.front().name.c_str());
                deterministic = false;
            }
        }
    }
    if (!deterministic)
        return 1;
    std::printf("per-VM sim_cycles bit-identical across all thread counts "
                "and check modes\n");
    return 0;
}
