/**
 * @file
 * The five kvmarm_bench workloads. Each stresses a different set of
 * simulator layers (README.md "Workloads"):
 *
 *   exit_mix     one VM whose ops nearly all exit: core (lowvisor, world
 *                switch, highvisor, vGIC emulation, Stage-2) and host mm
 *   guest_mem    one VM whose ops almost never exit: arm (cpu, MMU, TLB,
 *                walks) and mem; bypasses core
 *   paper_eval   Table 3 and Figures 3-6 through the wl:: entry points the
 *                reproduction benches use: x86, kvmx86, SMP guests, idle
 *                fast-forward
 *   fleet_batch  12 snapshot clones on a 4-worker Fleet under enforce: sim
 *                fleet scheduling, snapshot restore, mem COW, check
 *   fleet_ring   4 communicating VM pairs on a 4-worker Fleet: resumable
 *                park/notify, RingPacer windows, vdev/vring, SPI injection
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "fig_lmbench_common.hh"
#include "host/kernel.hh"
#include "kvmx86/host_x86.hh"
#include "kvmx86/kvm_x86.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/ring_channel.hh"
#include "suite.hh"
#include "vdev/vring.hh"
#include "workload/apps.hh"
#include "workload/microbench.hh"
#include "workload/microbench_x86.hh"
#include "workload/ring_driver.hh"

namespace kvmarm::suite {

namespace {

using arm::ArmCpu;
using arm::ArmMachine;

/// @name Sizes
/// Pinned so that one rep takes about half a second on a 4-CPU host; the smoke
/// sizes only have to reach every code path.
/// @{
struct Sizes
{
    std::size_t exitMixOps;
    std::size_t guestMemOps;
    std::size_t fleetBaseOps; //!< mean ops per fleet_batch clone
    unsigned ringRounds;      //!< round trips per fleet_ring pair
};
constexpr Sizes kFullSizes{150'000, 2'000'000, 80'000, 8'000};
constexpr Sizes kSmokeSizes{5'000, 40'000, 2'000, 40};
/// @}

constexpr unsigned kCloneJobs = 12;     //!< fleet_batch clones per rep
constexpr unsigned kWarmPages = 2048;   //!< golden pages clones share
constexpr unsigned kRingPairs = 4;
constexpr Cycles kRingLatency = 20'000;
constexpr Addr kVmRam = 64 * kMiB;
constexpr Addr kFreshOffset = 16 * kMiB; //!< Stage-2 fault region start
constexpr std::uint32_t kFreshPages =
    static_cast<std::uint32_t>((kVmRam - kFreshOffset) / kPageSize);

/** Parts-per-million mix in OpKind order. */
OpMix
mix(std::array<std::uint32_t, kNumOpKinds> ppm, std::uint32_t coldPages)
{
    OpMix m;
    m.ppm = ppm;
    m.coldPages = coldPages;
    m.freshPages = kFreshPages;
    return m;
}

//                        LoadHot LoadCold Store  Hvc     MmioK   MmioU
//                        Vgic    Sysreg   S2fault
const OpMix kExitMix = mix({0, 0, 0, 300'000, 250'000, 130'000,
                            200'000, 100'000, 20'000},
                           1);
const OpMix kGuestMem = mix({599'700, 149'800, 250'000, 200, 120, 40,
                             100, 40, 0},
                            4096);
const OpMix kCloneMix = mix({400'000, 100'000, 150'000, 150'000, 120'000,
                             0, 80'000, 0, 0},
                            kWarmPages);

std::uint64_t
planDigest(const OpPlan &plan, std::uint64_t h = 0xcbf29ce484222325ull)
{
    return fnv1a(plan.data(), plan.size() * sizeof(plan[0]), h);
}

/** Raw layer counters of one machine, or a sum over machines. */
struct Counters
{
    std::uint64_t worldSwitches = 0;
    std::uint64_t exits = 0;
    std::uint64_t stage2Faults = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t cowFaults = 0;
    std::uint64_t heapAllocs = 0;
    std::uint64_t checkEvents = 0;
    std::uint64_t checkViolations = 0;
    // Levels, not deltas: read after the run.
    std::uint64_t privatePages = 0;
    std::uint64_t sharedPages = 0;
    std::uint64_t mmUsedPages = 0;

    /** Work done between @p before and this reading. */
    Counters
    since(const Counters &before) const
    {
        Counters d = *this;
        d.worldSwitches -= before.worldSwitches;
        d.exits -= before.exits;
        d.stage2Faults -= before.stage2Faults;
        d.tlbHits -= before.tlbHits;
        d.tlbMisses -= before.tlbMisses;
        d.cowFaults -= before.cowFaults;
        d.heapAllocs -= before.heapAllocs;
        d.checkEvents -= before.checkEvents;
        d.checkViolations -= before.checkViolations;
        return d;
    }

    void
    add(const Counters &o)
    {
        worldSwitches += o.worldSwitches;
        exits += o.exits;
        stage2Faults += o.stage2Faults;
        tlbHits += o.tlbHits;
        tlbMisses += o.tlbMisses;
        cowFaults += o.cowFaults;
        heapAllocs += o.heapAllocs;
        checkEvents += o.checkEvents;
        checkViolations += o.checkViolations;
        privatePages += o.privatePages;
        sharedPages += o.sharedPages;
        mmUsedPages += o.mmUsedPages;
    }
};

/** Host seconds of the layer calls a bring-up made. */
struct BringUp
{
    std::vector<double> boot;   //!< HostKernel::boot / X86Host::boot
    std::vector<double> create; //!< initCpu + createVm + VM skeleton
};

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           double(v.size());
}

/**
 * One KVM/ARM stack (1-CPU machine, host kernel, KVM) with a 1-vCPU VM, an
 * in-kernel test device and a user-space MMIO handler — the configuration
 * of the Table 3 micro-benchmarks. The same skeleton serves cold boots and
 * snapshot clones.
 */
class VmStack
{
  public:
    VmStack() : machine_(config()), hostk_(machine_), kvm_(hostk_) {}

    ArmMachine &machine() { return machine_; }
    core::Kvm &kvm() { return kvm_; }
    core::Vm &vm() { return *vm_; }
    core::VCpu &vcpu() { return *vcpu_; }
    OpTarget
    target() const
    {
        return {vm_->ramBase(), vm_->ramBase() + kFreshOffset};
    }

    /**
     * Boot the host, init KVM and build the VM, then run @p attach (host
     * side) and @p warm (inside the guest). Leaves the machine quiesced.
     */
    void
    coldBoot(Tracer *tr, std::uint64_t parent, BringUp &bu,
             const std::function<void()> &attach,
             const std::function<void(ArmCpu &)> &warm)
    {
        machine_.cpu(0).setEntry([&] {
            ArmCpu &cpu = machine_.cpu(0);
            Clock::time_point t0 = Clock::now();
            {
                ScopedSpan s(tr, "boot", parent);
                hostk_.boot(0);
            }
            Clock::time_point t1 = Clock::now();
            {
                ScopedSpan s(tr, "vm_create", parent);
                if (!kvm_.initCpu(cpu))
                    fatal("kvmarm_bench: KVM init failed");
                buildSkeleton();
            }
            Clock::time_point t2 = Clock::now();
            bu.boot.push_back(seconds(t0, t1));
            bu.create.push_back(seconds(t1, t2));
            if (attach)
                attach();
            ScopedSpan s(tr, "warm", parent);
            vcpu_->run(cpu, warm);
        });
        machine_.run();
    }

    /** Become a clone of @p snap: rebuild the skeleton, then restore. */
    void
    adopt(const MachineSnapshot &snap)
    {
        kvm_.primeForRestore();
        buildSkeleton();
        machine_.restoreSnapshot(snap);
    }

    /** Run @p fn inside the guest; returns the simulated cycles it took. */
    Cycles
    runGuest(const std::function<void(ArmCpu &)> &fn)
    {
        Cycles sim = 0;
        machine_.cpu(0).setEntry([&] {
            vcpu_->run(machine_.cpu(0), [&](ArmCpu &c) {
                Cycles s0 = c.now();
                fn(c);
                sim = c.now() - s0;
            });
        });
        machine_.run();
        return sim;
    }

    /** Unit digest: simulated cycles plus the full CPU and vCPU stats. */
    std::uint64_t
    digest(Cycles sim, std::uint64_t extra = 0)
    {
        std::ostringstream os;
        machine_.cpu(0).stats().dump(os, "cpu0.");
        vcpu_->stats.dump(os, "vcpu.");
        const std::string dump = os.str();
        std::uint64_t h = fnv1a(&sim, sizeof(sim));
        h = fnv1a(&extra, sizeof(extra), h);
        return fnv1a(dump.data(), dump.size(), h);
    }

    Counters
    counters()
    {
        Counters c;
        if (vcpu_) {
            c.worldSwitches = vcpu_->stats.counterValue("worldswitch.in") +
                              vcpu_->stats.counterValue("worldswitch.out");
            c.exits = vcpu_->stats.counterValue("worldswitch.out");
            c.stage2Faults = vcpu_->stats.counterValue("fault.stage2");
        }
        arm::Tlb &tlb = machine_.cpu(0).mmu().tlb();
        c.tlbHits = tlb.hits();
        c.tlbMisses = tlb.misses();
        c.cowFaults = machine_.ram().cowFaults();
        c.privatePages = machine_.ram().privatePages();
        c.sharedPages = machine_.ram().sharedPages();
        c.heapAllocs = machine_.cpu(0).events().heapAllocs();
        c.mmUsedPages = hostk_.mm().usedPages();
        if (check::InvariantEngine *eng = machine_.checkEngine()) {
            c.checkEvents = eng->eventCount();
            c.checkViolations = eng->violationCount();
        }
        return c;
    }

  private:
    static ArmMachine::Config
    config()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 128 * kMiB;
        return mc;
    }

    void
    buildSkeleton()
    {
        vm_ = kvm_.createVm(kVmRam);
        vcpu_ = &vm_->addVcpu(0);
        vm_->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                             [](bool, Addr, std::uint64_t, unsigned) {
                                 return std::uint64_t{0};
                             });
        vm_->setUserMmioHandler(
            [](ArmCpu &c, core::VCpu &, core::MmioExit &exit) {
                c.compute(800); // QEMU device model work, as in Table 3
                exit.handled = true;
                exit.data = 0;
            });
    }

    ArmMachine machine_;
    host::HostKernel hostk_;
    core::Kvm kvm_;
    std::unique_ptr<core::Vm> vm_;
    core::VCpu *vcpu_ = nullptr;
};

/** Pre-fault @p pages pages of the working set and take each exit path
 *  once, so lazy state is settled before the timed ops. */
void
warmGuest(ArmCpu &c, const OpTarget &t, std::uint32_t pages)
{
    for (std::uint32_t p = 0; p < pages; ++p)
        c.memWrite(t.ram + Addr(p) * kPageSize, 0xA0000000u + p, 4);
    c.hvc(core::hvc::kTestHypercall);
    c.memWrite(core::Vm::kKernelTestDevBase, 0, 4);
    c.memWrite(ArmMachine::kUartBase, 0, 4);
    c.memRead(ArmMachine::kGicdBase + arm::gicd::ISENABLER, 4);
}

/** Per-layer values every VM-running workload reports. */
void
addVmLayers(Layers &l, const Counters &c, std::uint64_t ops,
            const BringUp &bu)
{
    l["core.world_switches"] = double(c.worldSwitches);
    l["core.exits_per_op"] = ops ? double(c.exits) / double(ops) : 0;
    l["core.stage2_faults"] = double(c.stage2Faults);
    l["arm.tlb.hits"] = double(c.tlbHits);
    l["arm.tlb.misses"] = double(c.tlbMisses);
    const std::uint64_t lookups = c.tlbHits + c.tlbMisses;
    l["arm.tlb.hit_ratio"] = lookups ? double(c.tlbHits) / double(lookups) : 0;
    l["mem.cow_faults"] = double(c.cowFaults);
    l["mem.private_pages"] = double(c.privatePages);
    l["mem.shared_pages"] = double(c.sharedPages);
    l["sim.events.heap_allocs"] = double(c.heapAllocs);
    l["host.mm_used_pages"] = double(c.mmUsedPages);
    l["check.events"] = double(c.checkEvents);
    l["check.violations"] = double(c.checkViolations);
    l["host.boot_us"] = mean(bu.boot) * 1e6;
    l["core.vm_create_us"] = mean(bu.create) * 1e6;
}

void
addOpLayers(RepOutcome &out, const OpStats &st)
{
    for (std::size_t k = 0; k < kNumOpKinds; ++k) {
        const Histogram &h = st.host[k];
        if (h.count() == 0)
            continue;
        const std::string stem = kOpMetric[k];
        out.layers[stem + "_ns"] = h.mean();
        if (stem.rfind("core.", 0) == 0)
            out.layers[stem + "_sim_cycles"] =
                double(st.simCycles[k]) / double(h.count());
        out.latency[stem] = h;
    }
}

/** Fleet scheduling metrics from per-job wall times and the makespan. */
void
addFleetLayers(Layers &l, const std::vector<Fleet::JobResult> &jobs,
               double makespan, const Fleet::Stats &fs)
{
    double busy = 0;
    double longest = 0;
    for (const Fleet::JobResult &j : jobs) {
        busy += j.wallSeconds;
        longest = std::max(longest, j.wallSeconds);
    }
    l["sim.fleet.busy_frac"] =
        makespan > 0 ? busy / (kFleetWorkers * makespan) : 0;
    l["sim.fleet.critical_path_frac"] =
        makespan > 0 ? longest / makespan : 0;
    l["sim.fleet.jobs_stolen"] = double(fs.jobsStolen);
    l["sim.fleet.jobs_parked"] = double(fs.jobsParked);
}

/** Record the failed fleet jobs of one rep. */
void
collectJobFailures(const std::vector<Fleet::JobResult> &jobs,
                   RepOutcome &out)
{
    for (const Fleet::JobResult &j : jobs) {
        if (!j.ok) {
            ++out.failed;
            out.errors.push_back(j.name + ": " + j.error);
        }
    }
}

// ---------------------------------------------------------------------------

/** exit_mix and guest_mem: one VM replaying one seeded op stream. */
class SingleVm : public Workload
{
  public:
    SingleVm(const char *name, const OpMix &m, std::size_t ops,
             std::uint32_t prefault)
        : name_(name), mix_(m), ops_(ops), prefault_(prefault)
    {
    }

    const char *name() const override { return name_; }
    const char *checkMode() const override { return "off"; }

    void
    prepare(std::uint64_t seed) override
    {
        plan_ = makePlan(mixSeed(seed, 1), mix_, ops_);
    }

    std::uint64_t planHash() const override { return planDigest(plan_); }

    RepOutcome
    rep(const RepContext &ctx) override
    {
        check::ScopedCheckMode mode(check::CheckMode::Off);
        RepOutcome out;
        Clock::time_point t0 = Clock::now();
        VmStack st;
        BringUp bu;
        st.coldBoot(ctx.tracer, ctx.span, bu, {}, [&](ArmCpu &c) {
            warmGuest(c, st.target(), prefault_);
        });
        Clock::time_point t1 = Clock::now();
        const Counters before = st.counters();

        OpStats stats;
        Cycles sim = 0;
        {
            ScopedSpan s(ctx.tracer, "ops", ctx.span);
            OpStats *timed = ctx.tracer ? &stats : nullptr;
            sim = st.runGuest([&](ArmCpu &c) {
                runOps(c, plan_, st.target(), timed);
            });
        }
        Clock::time_point t2 = Clock::now();

        out.setupSeconds = seconds(t0, t1);
        out.runSeconds = seconds(t1, t2);
        out.simCycles = sim;
        out.digests.push_back(st.digest(sim));
        if (ctx.tracer) {
            addVmLayers(out.layers, st.counters().since(before),
                        plan_.size(), bu);
            addOpLayers(out, stats);
        }
        return out;
    }

  private:
    const char *name_;
    OpMix mix_;
    std::size_t ops_;
    std::uint32_t prefault_;
    OpPlan plan_;
};

// ---------------------------------------------------------------------------

/** fleet_batch: clones of one golden VM, dealt to a 4-worker Fleet. */
class FleetBatch : public Workload
{
  public:
    explicit FleetBatch(std::size_t baseOps) : baseOps_(baseOps) {}

    const char *name() const override { return "fleet_batch"; }
    const char *checkMode() const override { return "enforce"; }

    void
    prepare(std::uint64_t seed) override
    {
        // Job j runs (0.5 + j/11) x the base length. Submission deals jobs
        // round-robin, so worker loads differ by ~30% and stealing has
        // work to do. The lengths are fixed rather than seeded: a seeded
        // order would change the dealt imbalance, and with it the
        // makespan, from seed to seed. The seed picks each stream's ops.
        plans_.clear();
        for (unsigned j = 0; j < kCloneJobs; ++j)
            plans_.push_back(makePlan(
                mixSeed(seed, 100 + j), kCloneMix,
                baseOps_ / 2 + baseOps_ * j / (kCloneJobs - 1)));
    }

    std::uint64_t
    planHash() const override
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const OpPlan &p : plans_)
            h = planDigest(p, h);
        return h;
    }

    RepOutcome
    rep(const RepContext &ctx) override
    {
        // Enforce covers the golden too: clones replay its Stage-2 and
        // Hyp-page history into their own checked engines.
        check::ScopedCheckMode mode(check::CheckMode::Enforce);
        RepOutcome out;
        Tracer *tr = ctx.tracer;

        Clock::time_point t0 = Clock::now();
        VmStack golden;
        BringUp bu;
        golden.coldBoot(tr, ctx.span, bu, {}, [&](ArmCpu &c) {
            warmGuest(c, golden.target(), kWarmPages);
        });
        std::shared_ptr<const MachineSnapshot> snap;
        Clock::time_point s0 = Clock::now();
        {
            ScopedSpan s(tr, "snapshot_take", ctx.span);
            snap = golden.machine().takeSnapshot();
        }
        const double takeSeconds = seconds(s0, Clock::now());
        Fleet fleet(kFleetWorkers);
        fleet.start();
        Clock::time_point t1 = Clock::now();

        struct JobOut
        {
            Cycles sim = 0;
            std::uint64_t digest = 0;
            double restoreSeconds = 0;
            Counters counters;
            OpStats stats;
        };
        std::vector<JobOut> jobs(plans_.size());
        std::vector<Fleet::JobResult> results;
        {
            ScopedSpan fs(tr, "fleet", ctx.span);
            for (std::size_t j = 0; j < plans_.size(); ++j) {
                fleet.submit("clone" + std::to_string(j), [&, j] {
                    ScopedSpan js(tr, "clone_job", fs.id());
                    JobOut &o = jobs[j];
                    VmStack vm;
                    Clock::time_point r0 = Clock::now();
                    {
                        ScopedSpan s(tr, "restore", js.id());
                        vm.adopt(*snap);
                    }
                    o.restoreSeconds = seconds(r0, Clock::now());
                    const Counters before = vm.counters();
                    ScopedSpan s(tr, "ops", js.id());
                    o.sim = vm.runGuest([&](ArmCpu &c) {
                        runOps(c, plans_[j], vm.target(),
                               tr ? &o.stats : nullptr);
                    });
                    o.counters = vm.counters().since(before);
                    o.digest = vm.digest(o.sim);
                });
            }
            results = fleet.drain();
        }
        Clock::time_point t2 = Clock::now();
        fleet.shutdown();

        out.setupSeconds = seconds(t0, t1);
        out.runSeconds = seconds(t1, t2);
        collectJobFailures(results, out);
        Counters total;
        OpStats stats;
        std::vector<double> restores;
        for (const JobOut &o : jobs) {
            out.simCycles += o.sim;
            out.digests.push_back(o.digest);
            total.add(o.counters);
            stats.merge(o.stats);
            restores.push_back(o.restoreSeconds);
        }
        if (tr) {
            addVmLayers(out.layers, total, stats.ops(), bu);
            addOpLayers(out, stats);
            addFleetLayers(out.layers, results, out.runSeconds,
                           fleet.stats());
            out.layers["sim.snapshot.take_us"] = takeSeconds * 1e6;
            out.layers["sim.snapshot.restore_us"] = mean(restores) * 1e6;
            out.layers["sim.snapshot.bytes"] = double(snap->totalBytes());
        }
        return out;
    }

  private:
    std::size_t baseOps_;
    std::vector<OpPlan> plans_;
};

// ---------------------------------------------------------------------------

/** Expected guest checksum after consuming messages of @p lens (tag = index),
 *  mirroring RingGuestOs's payload pattern and FNV fold. */
std::uint64_t
ringChecksum(const std::vector<std::uint32_t> &lens)
{
    std::uint64_t h = 0x811c9dc5;
    for (std::uint32_t tag = 0; tag < lens.size(); ++tag) {
        for (std::uint32_t i = 0; i < lens[tag]; ++i) {
            const std::uint8_t byte =
                i < 4 ? static_cast<std::uint8_t>(tag >> (i * 8))
                      : static_cast<std::uint8_t>((tag ^ i) & 0xFF);
            h ^= byte;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** One communicating VM of fleet_ring: a VmStack with a vring endpoint. */
class RingVm
{
  public:
    RingVm(RingChannel::Endpoint &ep, bool initiator,
           const std::vector<std::uint32_t> &lens)
        : ep_(ep), initiator_(initiator), lens_(lens)
    {
    }

    /** Set-up: boot, build the VM, attach the device, init the guest. */
    void
    boot(Tracer *tr, std::uint64_t parent, BringUp &bu)
    {
        st_.coldBoot(
            tr, parent, bu,
            [&] {
                st_.vcpu().setGuestOs(&guest_);
                dev_ = std::make_unique<vdev::VringDevice>(st_.kvm(),
                                                           st_.vm(), ep_);
            },
            [&](ArmCpu &c) { guest_.init(c); });
        before_ = st_.counters();
        pacer_ = std::make_unique<RingPacer>(st_.machine(), "ringvm");
        pacer_->attach(ep_);
        st_.machine().cpu(0).setEntry([this] {
            sim_ = 0;
            core::VCpu &vcpu = st_.vcpu();
            vcpu.run(st_.machine().cpu(0), [this](ArmCpu &c) {
                const Cycles s0 = c.now();
                pingPong(c);
                sim_ = c.now() - s0;
            });
        });
    }

    RingPacer &pacer() { return *pacer_; }
    Histogram &steps() { return steps_; }

    Fleet::StepOutcome
    step(bool timed)
    {
        Clock::time_point t0 = Clock::now();
        const bool done = pacer_->step() == RingPacer::Step::Done;
        if (timed)
            steps_.add(
                std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count());
        return done ? Fleet::StepOutcome::Done : Fleet::StepOutcome::Blocked;
    }

    Cycles sim() const { return sim_; }
    std::uint64_t checksum() const { return guest_.checksum(); }
    std::uint64_t consumed() const { return guest_.consumed(); }
    std::uint64_t txCount() const { return dev_->txCount(); }
    std::uint64_t
    digest()
    {
        return st_.digest(sim_, dev_->digest() ^ guest_.checksum());
    }
    /** Layer work of the ping-pong, excluding boot. */
    Counters counters() { return st_.counters().since(before_); }

  private:
    void
    pingPong(ArmCpu &c)
    {
        for (std::uint32_t r = 0; r < lens_.size(); ++r) {
            if (initiator_)
                guest_.send(c, r, lens_[r]);
            guest_.waitRx(c, guest_.consumed() + 1);
            const std::uint32_t tag = guest_.consume(c);
            if (tag != r)
                fatal("kvmarm_bench: ring round %u received tag %u", r, tag);
            if (!initiator_)
                guest_.send(c, tag, lens_[r]);
        }
    }

    // Declaration order is destruction safety: the device and the pacer
    // deregister snapshot blockers from the machine inside st_.
    VmStack st_;
    RingChannel::Endpoint &ep_;
    bool initiator_;
    const std::vector<std::uint32_t> &lens_;
    wl::RingGuestOs guest_;
    std::unique_ptr<vdev::VringDevice> dev_;
    std::unique_ptr<RingPacer> pacer_;
    Histogram steps_;
    Counters before_;
    Cycles sim_ = 0;
};

/** fleet_ring: ring pairs as resumable jobs on a 4-worker Fleet. */
class FleetRing : public Workload
{
  public:
    explicit FleetRing(unsigned rounds) : rounds_(rounds) {}

    const char *name() const override { return "fleet_ring"; }
    const char *checkMode() const override { return "off"; }

    void
    prepare(std::uint64_t seed) override
    {
        // Payload sizes, per VM, uniform over the vring's [4, 256] bytes.
        lens_.assign(2 * kRingPairs, {});
        Rng rng(mixSeed(seed, 3));
        for (auto &v : lens_) {
            v.resize(rounds_);
            for (std::uint32_t &len : v)
                len = 4 + static_cast<std::uint32_t>(rng.range(253));
        }
    }

    std::uint64_t
    planHash() const override
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const auto &v : lens_)
            h = fnv1a(v.data(), v.size() * sizeof(v[0]), h);
        return h;
    }

    RepOutcome
    rep(const RepContext &ctx) override
    {
        check::ScopedCheckMode mode(check::CheckMode::Off);
        RepOutcome out;
        Tracer *tr = ctx.tracer;

        Clock::time_point t0 = Clock::now();
        std::vector<std::unique_ptr<RingChannel>> channels;
        // The fleet outlives the VMs: pacer destructors fire wake hooks.
        Fleet fleet(kFleetWorkers);
        std::vector<std::unique_ptr<RingVm>> vms;
        BringUp bu;
        for (unsigned p = 0; p < kRingPairs; ++p) {
            channels.push_back(std::make_unique<RingChannel>(
                "ring" + std::to_string(p), kRingLatency));
            for (unsigned side = 0; side < 2; ++side) {
                vms.push_back(std::make_unique<RingVm>(
                    channels.back()->end(side), side == 0,
                    lens_[2 * p + side]));
                vms.back()->boot(tr, ctx.span, bu);
            }
        }
        // Submit before start() so every wake hook exists before any step.
        for (std::size_t i = 0; i < vms.size(); ++i) {
            RingVm *vm = vms[i].get();
            const bool timed = tr != nullptr;
            std::size_t idx = fleet.submitResumable(
                "ringvm" + std::to_string(i),
                [vm, timed] { return vm->step(timed); });
            vm->pacer().setWakeHook([&fleet, idx] { fleet.notify(idx); });
        }
        Clock::time_point t1 = Clock::now();
        std::vector<Fleet::JobResult> results;
        {
            ScopedSpan fs(tr, "fleet", ctx.span);
            fleet.start();
            results = fleet.drain();
        }
        Clock::time_point t2 = Clock::now();
        fleet.shutdown();

        out.setupSeconds = seconds(t0, t1);
        out.runSeconds = seconds(t1, t2);
        collectJobFailures(results, out);
        Counters total;
        Histogram steps;
        std::uint64_t windows = 0;
        std::uint64_t msgs = 0;
        for (std::size_t i = 0; i < vms.size(); ++i) {
            RingVm &vm = *vms[i];
            // Each guest must have consumed every message its peer sent,
            // byte for byte.
            const std::uint64_t want = ringChecksum(lens_[i ^ 1]);
            if (vm.consumed() != rounds_ || vm.checksum() != want) {
                ++out.failed;
                out.errors.push_back("ringvm" + std::to_string(i) +
                                     ": payload checksum mismatch");
            }
            out.simCycles += vm.sim();
            out.digests.push_back(vm.digest());
            total.add(vm.counters());
            steps.merge(vm.steps());
            windows += vm.pacer().windowsRun();
            msgs += vm.txCount();
        }
        if (tr) {
            double wall = 0;
            for (const Fleet::JobResult &j : results)
                wall += j.wallSeconds;
            addVmLayers(out.layers, total, 0, bu);
            addFleetLayers(out.layers, results, out.runSeconds,
                           fleet.stats());
            out.layers["sim.ring.windows"] = double(windows);
            out.layers["sim.ring.step_us"] = steps.mean() * 1e-3;
            out.latency["sim.ring.step"] = steps;
            out.layers["vdev.vring.msgs"] = double(msgs);
            out.layers["vdev.vring.msg_us"] =
                msgs ? wall / double(msgs) * 1e6 : 0;
        }
        return out;
    }

  private:
    unsigned rounds_;
    std::vector<std::vector<std::uint32_t>> lens_;
};

// ---------------------------------------------------------------------------

/** The paper's Table 3 as read from bench/golden/table3_micro.txt: the
 *  simulated columns the repo gates on and the paper's own values. */
struct Table3Golden
{
    std::array<std::array<double, 4>, 6> sim{};
    std::array<std::array<double, 4>, 6> paper{};
};

Table3Golden
readTable3Golden()
{
    const std::string path =
        std::string(KVMARM_BENCH_REPO_ROOT) + "/bench/golden/table3_micro.txt";
    std::ifstream in(path);
    if (!in)
        fatal("kvmarm_bench: cannot read %s", path.c_str());
    static const char *const kRows[] = {"Hypercall", "Trap",
                                        "I/O Kernel", "I/O User",
                                        "IPI",       "EOI+ACK"};
    Table3Golden g;
    unsigned found = 0;
    std::string line;
    while (std::getline(in, line)) {
        for (unsigned r = 0; r < 6; ++r) {
            const std::string label = kRows[r];
            if (line.compare(0, label.size(), label) != 0 ||
                line.size() <= label.size() || line[label.size()] != ' ')
                continue;
            std::istringstream is(line.substr(label.size()));
            std::string bar;
            for (double &v : g.sim[r])
                is >> v;
            is >> bar;
            for (double &v : g.paper[r])
                is >> v;
            if (!is || bar != "|")
                fatal("kvmarm_bench: malformed row '%s' in %s", kRows[r],
                      path.c_str());
            ++found;
        }
    }
    if (found != 6)
        fatal("kvmarm_bench: %s has %u of 6 Table 3 rows", path.c_str(),
              found);
    return g;
}

std::array<double, 6>
microRow(const wl::MicroResults &m)
{
    return {double(m.hypercall), double(m.trap), double(m.ioKernel),
            double(m.ioUser), double(m.ipi), double(m.eoiAck)};
}

/** paper_eval: every cell of Table 3 and Figures 3-6. */
class PaperEval : public Workload
{
  public:
    PaperEval() : golden_(readTable3Golden()) { buildCells(); }

    const char *name() const override { return "paper_eval"; }
    const char *checkMode() const override { return "off"; }

    void prepare(std::uint64_t seed) override { seed_ = seed; }

    std::uint64_t
    planHash() const override
    {
        std::vector<std::size_t> order = cellOrder(0);
        return fnv1a(order.data(), order.size() * sizeof(order[0]));
    }

    RepOutcome
    rep(const RepContext &ctx) override
    {
        check::ScopedCheckMode mode(check::CheckMode::Off);
        RepOutcome out;
        Tracer *tr = ctx.tracer;

        Clock::time_point t0 = Clock::now();
        BringUp bu = bringUpPlatforms(tr, ctx.span);
        Clock::time_point t1 = Clock::now();

        // Inputs are the paper's; the seed only orders the cells, and each
        // rep uses another order, so matching digests across reps also show
        // that no cell depends on what ran before it.
        std::vector<std::vector<double>> values(cells_.size());
        std::map<std::string, double> sectionSeconds;
        PlatformSeconds plat;
        for (std::size_t idx : cellOrder(ctx.rep)) {
            const Cell &cell = cells_[idx];
            ScopedSpan s(tr, cell.section, ctx.span);
            Clock::time_point c0 = Clock::now();
            try {
                values[idx] = cell.run(plat);
            } catch (const std::exception &e) {
                ++out.failed;
                out.errors.push_back(cell.name + ": " + e.what());
            }
            sectionSeconds[cell.section] += seconds(c0, Clock::now());
        }
        Clock::time_point t2 = Clock::now();

        out.setupSeconds = seconds(t0, t1);
        out.runSeconds = seconds(t1, t2);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            for (double v : values[i])
                out.simCycles += static_cast<std::uint64_t>(v);
            out.digests.push_back(fnv1a(
                values[i].data(), values[i].size() * sizeof(double)));
        }
        const double errPct = checkTable3(values, out);
        if (tr) {
            Layers &l = out.layers;
            l["host.boot_us"] = mean(bu.boot) * 1e6;
            l["core.vm_create_us"] = mean(bu.create) * 1e6;
            l["workload.table3_err_pct"] = errPct;
            const double run = out.runSeconds;
            for (const auto &[section, secs] : sectionSeconds)
                l["workload." + section + "_pct"] = 100 * secs / run;
            l["workload.native_pct"] = 100 * plat.native / run;
            l["workload.virt_arm_pct"] = 100 * plat.virtArm / run;
            l["workload.virt_x86_pct"] = 100 * plat.virtX86 / run;
        }
        return out;
    }

  private:
    /** Host seconds spent in each wl:: platform entry point. */
    struct PlatformSeconds
    {
        double native = 0;
        double virtArm = 0;
        double virtX86 = 0;
    };

    struct Cell
    {
        std::string section;
        std::string name;
        std::function<std::vector<double>(PlatformSeconds &)> run;
    };

    /** Time @p fn into @p bucket. */
    template <class Fn>
    static auto
    timed(double &bucket, Fn &&fn)
    {
        Clock::time_point t0 = Clock::now();
        auto r = fn();
        bucket += seconds(t0, Clock::now());
        return r;
    }

    static bool
    isArm(wl::Platform p)
    {
        return p == wl::Platform::ArmVgic || p == wl::Platform::ArmNoVgic;
    }

    /** A native + virtualized pair of one experiment, as wl::overhead. */
    static std::vector<double>
    nativeVirt(const wl::Experiment &exp, PlatformSeconds &ps)
    {
        wl::RunMetrics n = timed(ps.native, [&] { return wl::runNative(exp); });
        wl::RunMetrics v = timed(isArm(exp.platform) ? ps.virtArm
                                                     : ps.virtX86,
                                 [&] { return wl::runVirt(exp); });
        return {double(n.elapsed), double(v.elapsed)};
    }

    void
    buildCells()
    {
        using wl::Platform;
        const Platform platforms[] = {Platform::ArmVgic, Platform::ArmNoVgic,
                                      Platform::X86Laptop,
                                      Platform::X86Server};
        for (Platform p : platforms) {
            cells_.push_back({"table3", std::string("table3/") +
                                            wl::platformName(p),
                              [p](PlatformSeconds &ps) {
                                  std::array<double, 6> r;
                                  if (isArm(p)) {
                                      const bool vgic =
                                          p == Platform::ArmVgic;
                                      r = microRow(timed(ps.virtArm, [&] {
                                          return wl::runArmMicrobench(
                                              {vgic, vgic, 64});
                                      }));
                                  } else {
                                      const x86::X86Platform xp =
                                          p == Platform::X86Laptop
                                              ? x86::X86Platform::Laptop
                                              : x86::X86Platform::Server;
                                      r = microRow(timed(ps.virtX86, [&] {
                                          return wl::runX86Microbench(
                                              {xp, 64});
                                      }));
                                  }
                                  return std::vector<double>(r.begin(),
                                                             r.end());
                              }});
        }
        for (bool smp : {false, true}) {
            const std::string lm = smp ? "lmbench_smp" : "lmbench_up";
            for (wl::LmWorkload w : wl::allLmWorkloads()) {
                for (Platform p : platforms) {
                    cells_.push_back(
                        {lm,
                         lm + "/" + wl::lmWorkloadName(w) + "/" +
                             wl::platformName(p),
                         [p, w, smp](PlatformSeconds &ps) {
                             return nativeVirt(
                                 benchfig::lmbenchExperiment(p, w, smp), ps);
                         }});
                }
            }
            const std::string apps = smp ? "apps_smp" : "apps_up";
            for (wl::App a : wl::allApps()) {
                for (Platform p : platforms) {
                    cells_.push_back(
                        {apps,
                         apps + "/" + wl::appName(a) + "/" +
                             wl::platformName(p),
                         [p, a, smp](PlatformSeconds &ps) {
                             return nativeVirt(
                                 wl::makeAppExperiment(a, p, smp), ps);
                         }});
                }
            }
        }
    }

    std::vector<std::size_t>
    cellOrder(unsigned rep) const
    {
        std::vector<std::size_t> order(cells_.size());
        std::iota(order.begin(), order.end(), 0);
        Rng rng(mixSeed(seed_, 1000 + rep));
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.range(i)]);
        return order;
    }

    /**
     * Table 3 must equal the repo's golden bit for bit (a mismatching
     * column fails its cell). Returns the mean |sim - paper| / paper over
     * the 24 cells, in percent.
     */
    double
    checkTable3(const std::vector<std::vector<double>> &values,
                RepOutcome &out) const
    {
        double err = 0;
        for (unsigned col = 0; col < 4; ++col) {
            const std::vector<double> &v = values[col];
            if (v.size() != 6)
                continue; // the cell threw and is already counted
            bool match = true;
            for (unsigned row = 0; row < 6; ++row) {
                match = match && v[row] == golden_.sim[row][col];
                err += std::abs(v[row] - golden_.paper[row][col]) /
                       golden_.paper[row][col];
            }
            if (!match) {
                ++out.failed;
                out.errors.push_back(cells_[col].name +
                                     ": differs from the Table 3 golden");
            }
        }
        return 100 * err / 24;
    }

    /** Set-up: bring each evaluated platform's hypervisor stack up once
     *  (host boot, KVM init, VM creation) — the bring-up every virtualized
     *  cell repeats, checked here before the timed cells. */
    static BringUp
    bringUpPlatforms(Tracer *tr, std::uint64_t parent)
    {
        BringUp bu;
        for (bool vgic : {true, false}) {
            ArmMachine::Config mc;
            mc.numCpus = 1;
            mc.ramSize = 768 * kMiB;
            mc.hwVgic = vgic;
            mc.hwVtimers = vgic;
            ArmMachine machine(mc);
            host::HostKernel hostk(machine);
            core::KvmConfig kc;
            kc.useVgic = vgic;
            kc.useVtimers = vgic;
            core::Kvm kvm(hostk, kc);
            std::unique_ptr<core::Vm> vm;
            machine.cpu(0).setEntry([&] {
                Clock::time_point b0 = Clock::now();
                {
                    ScopedSpan s(tr, "boot", parent);
                    hostk.boot(0);
                }
                Clock::time_point b1 = Clock::now();
                {
                    ScopedSpan s(tr, "vm_create", parent);
                    if (!kvm.initCpu(machine.cpu(0)))
                        fatal("kvmarm_bench: KVM init failed");
                    vm = kvm.createVm(384 * kMiB);
                    vm->addVcpu(0);
                }
                bu.boot.push_back(seconds(b0, b1));
                bu.create.push_back(seconds(b1, Clock::now()));
            });
            machine.run();
        }
        for (x86::X86Platform xp :
             {x86::X86Platform::Laptop, x86::X86Platform::Server}) {
            x86::X86Machine::Config mc;
            mc.numCpus = 1;
            mc.ramSize = 768 * kMiB;
            mc.platform = xp;
            x86::X86Machine machine(mc);
            kvmx86::X86Host hostx(machine);
            kvmx86::KvmX86 kvm(hostx);
            std::unique_ptr<kvmx86::VmX86> vm;
            machine.cpu(0).setEntry([&] {
                Clock::time_point b0 = Clock::now();
                {
                    ScopedSpan s(tr, "boot", parent);
                    hostx.boot(0);
                }
                Clock::time_point b1 = Clock::now();
                {
                    ScopedSpan s(tr, "vm_create", parent);
                    kvm.initCpu(machine.cpu(0));
                    vm = kvm.createVm(384 * kMiB);
                    vm->addVcpu(0);
                }
                bu.boot.push_back(seconds(b0, b1));
                bu.create.push_back(seconds(b1, Clock::now()));
            });
            machine.run();
        }
        return bu;
    }

    Table3Golden golden_;
    std::vector<Cell> cells_;
    std::uint64_t seed_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "exit_mix", "guest_mem", "paper_eval", "fleet_batch", "fleet_ring"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, bool smoke)
{
    const Sizes &sz = smoke ? kSmokeSizes : kFullSizes;
    if (name == "exit_mix")
        return std::make_unique<SingleVm>("exit_mix", kExitMix, sz.exitMixOps,
                                          0);
    if (name == "guest_mem")
        return std::make_unique<SingleVm>("guest_mem", kGuestMem,
                                          sz.guestMemOps,
                                          kGuestMem.coldPages);
    if (name == "paper_eval")
        return std::make_unique<PaperEval>();
    if (name == "fleet_batch")
        return std::make_unique<FleetBatch>(sz.fleetBaseOps);
    if (name == "fleet_ring")
        return std::make_unique<FleetRing>(sz.ringRounds);
    return nullptr;
}

} // namespace kvmarm::suite
