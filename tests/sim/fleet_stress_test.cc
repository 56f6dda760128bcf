/**
 * @file
 * Deterministic randomized fleet stress test: a seeded PRNG (sim/random.hh)
 * generates a schedule of pool operations — external submissions before and
 * during the run, snapshot/clone spawns from inside job bodies, ring-paired
 * communicating VMs, park/notify ping-pong, and a mid-schedule drain epoch —
 * and the whole schedule executes against the long-lived Fleet pool at 1,
 * 2, 4 and 8 workers (and again under Enforce checking). The invariant
 * under test is the fleet's core determinism contract (DESIGN.md §4.11):
 * every VM's simulated execution depends only on its submission key and
 * workload spec, so per-VM sim_cycles, stat dumps and ring digests must be
 * bit-identical to a serial run of the same plan with no Fleet at all, at
 * every worker count and check mode.
 *
 * The plan is generated from the seed BEFORE execution (no RNG draw ever
 * happens on a worker thread), so a failing seed replays exactly. Tier-1
 * runs a fixed seed set; set KVMARM_STRESS_SEED=<n> to reproduce or
 * explore a specific schedule.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm_stack.hh"
#include "sim/fleet.hh"
#include "sim/random.hh"
#include "sim/ring_channel.hh"
#include "vdev/vring.hh"
#include "workload/ring_driver.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

/** Seeded workload shape for one VM (drawn at plan time, never on a
 *  worker thread). */
struct VmSpec
{
    std::uint64_t warmPages = 0;
    std::uint64_t warmHvc = 0;
    std::uint64_t reads = 0;
    std::uint64_t hvcs = 0;
    std::uint64_t freshPages = 0;
};

/** One root entry of the generated schedule. */
struct RootSpec
{
    enum class Kind
    {
        Compute,  //!< one self-contained VM job
        Spawner,  //!< VM that snapshots itself and spawns clone VMs mid-run
        RingPair, //!< two communicating VMs on one RingChannel
        ParkPair, //!< two mutually-waking resumable jobs (no VM)
    };

    Kind kind = Kind::Compute;
    VmSpec self;
    std::vector<VmSpec> clones; //!< Spawner: one workload per spawned clone
    unsigned rounds = 0;        //!< RingPair / ParkPair
    std::size_t outcomeBase = 0;
    bool secondWave = false; //!< submitted after the mid-schedule drain
};

struct Plan
{
    std::uint64_t seed = 0;
    std::vector<RootSpec> roots;
    std::size_t outcomes = 0;
};

/** Everything observable one VM produced. Rings store (digest, checksum)
 *  in blob; machine jobs store the full stat dump. */
struct Outcome
{
    Cycles simCycles = 0;
    std::string blob;

    bool
    operator==(const Outcome &o) const
    {
        return simCycles == o.simCycles && blob == o.blob;
    }
};

VmSpec
drawVm(Rng &rng)
{
    VmSpec s;
    s.warmPages = 24 + rng.range(40);
    s.warmHvc = 20 + rng.range(60);
    s.reads = 200 + rng.range(400);
    s.hvcs = 20 + rng.range(60);
    s.freshPages = 8 + rng.range(16);
    return s;
}

Plan
makePlan(std::uint64_t seed)
{
    Rng rng(seed);
    Plan plan;
    plan.seed = seed;
    constexpr unsigned kRoots = 6;
    for (unsigned i = 0; i < kRoots; ++i) {
        RootSpec r;
        // Roots 0/1 are pinned to the two heavyweight kinds so every seed
        // covers the spawn and ring paths; the rest of the schedule is up
        // to the seed.
        unsigned kind = i == 0 ? 1 : i == 1 ? 2 : unsigned(rng.range(4));
        switch (kind) {
          case 0:
            r.kind = RootSpec::Kind::Compute;
            r.self = drawVm(rng);
            break;
          case 1:
            r.kind = RootSpec::Kind::Spawner;
            r.self = drawVm(rng);
            for (std::uint64_t c = 0, n = 2 + rng.range(3); c < n; ++c)
                r.clones.push_back(drawVm(rng));
            break;
          case 2:
            r.kind = RootSpec::Kind::RingPair;
            r.rounds = static_cast<unsigned>(8 + rng.range(16));
            break;
          default:
            r.kind = RootSpec::Kind::ParkPair;
            r.rounds = static_cast<unsigned>(4 + rng.range(8));
            break;
        }
        r.secondWave = i >= 4; // roots 4..5 land after the first drain
        r.outcomeBase = plan.outcomes;
        switch (r.kind) {
          case RootSpec::Kind::Compute: plan.outcomes += 1; break;
          case RootSpec::Kind::Spawner:
            plan.outcomes += 1 + r.clones.size();
            break;
          case RootSpec::Kind::RingPair: plan.outcomes += 2; break;
          case RootSpec::Kind::ParkPair: break;
        }
        plan.roots.push_back(std::move(r));
    }
    return plan;
}

/** A full-stack snapshot-capable VM in two phases: a boot/warm leg that
 *  quiesces, then a workload leg. */
class StressVm
{
  public:
    ArmMachine &machine() { return stack_.machine; }

    void
    bootAndWarm(const VmSpec &spec)
    {
        stack_.onCpu(0, [this, &spec](ArmCpu &cpu) {
            buildVmSkeleton();
            vcpu_->run(cpu, [this, &spec](ArmCpu &c) {
                const Addr base = vm_->ramBase();
                for (std::uint64_t i = 0; i < spec.warmPages; ++i)
                    c.memWrite(base + Addr(i) * kPageSize,
                               0xA0000000u + static_cast<std::uint32_t>(i),
                               4);
                for (std::uint64_t i = 0; i < spec.warmHvc; ++i)
                    c.hvc(core::hvc::kTestHypercall);
            });
        });
        stack_.machine.run();
    }

    void
    cloneFrom(const MachineSnapshot &snap)
    {
        stack_.kvm.primeForRestore();
        buildVmSkeleton();
        stack_.machine.restoreSnapshot(snap);
    }

    void
    runWorkload(const VmSpec &spec, Outcome &out)
    {
        stack_.machine.cpu(0).setEntry([this, &spec, &out] {
            ArmCpu &cpu = stack_.machine.cpu(0);
            vcpu_->run(cpu, [this, &spec, &out](ArmCpu &c) {
                const Addr base = vm_->ramBase();
                Cycles sim0 = c.now();
                for (std::uint64_t i = 0; i < spec.reads; ++i)
                    c.memRead(base + ((i & 63) * 8), 4);
                for (std::uint64_t i = 0; i < spec.hvcs; ++i)
                    c.hvc(core::hvc::kTestHypercall);
                const Addr fresh = base + 16 * kMiB;
                for (std::uint64_t i = 0; i < spec.freshPages; ++i)
                    c.memWrite(fresh + Addr(i) * kPageSize,
                               0xB000 + static_cast<std::uint32_t>(i), 4);
                out.simCycles = c.now() - sim0;
            });
        });
        stack_.machine.run();

        std::ostringstream os;
        stack_.machine.cpu(0).stats().dump(os, "cpu0.");
        vcpu_->stats.dump(os, "vcpu.");
        out.blob = os.str();
    }

  private:
    void
    buildVmSkeleton()
    {
        vm_ = stack_.kvm.createVm(32 * kMiB);
        vcpu_ = &vm_->addVcpu(0);
    }

    core::KvmStack stack_{{.numCpus = 1, .ramSize = 64 * kMiB, .kvm = {}}};
    std::unique_ptr<core::Vm> vm_;
    core::VCpu *vcpu_ = nullptr;
};

/** One communicating VM of a ring pair, stepped as a resumable job. */
class StressRingVm
{
  public:
    StressRingVm(const std::string &name, RingChannel::Endpoint &ep,
                 bool initiator, unsigned rounds)
    {
        pacer_ = std::make_unique<RingPacer>(stack_.machine, name);
        pacer_->attach(ep);

        stack_.onCpu(0, [this, &ep, initiator, rounds](ArmCpu &cpu) {
            vm_ = stack_.kvm.createVm(32 * kMiB);
            core::VCpu &vcpu = vm_->addVcpu(0);
            guest_ = std::make_unique<wl::RingGuestOs>();
            vcpu.setGuestOs(guest_.get());
            dev_ = std::make_unique<vdev::VringDevice>(stack_.kvm, *vm_, ep);

            vcpu.run(cpu, [this, initiator, rounds](ArmCpu &c) {
                guest_->init(c);
                Cycles sim0 = c.now();
                guest_->pingPong(c, rounds, initiator, /*payload=*/48);
                simCycles_ = c.now() - sim0;
            });
        });
    }

    Fleet::StepOutcome
    step()
    {
        return pacer_->step() == RingPacer::Step::Done
                   ? Fleet::StepOutcome::Done
                   : Fleet::StepOutcome::Blocked;
    }

    RingPacer &pacer() { return *pacer_; }

    Outcome
    outcome() const
    {
        Outcome o;
        o.simCycles = simCycles_;
        std::ostringstream os;
        os << "digest=" << dev_->digest() << " checksum=" << guest_->checksum()
           << " tx=" << dev_->txCount();
        o.blob = os.str();
        return o;
    }

  private:
    // Declaration order is destruction safety: device and pacer deregister
    // from the machine, so the machine must outlive both.
    core::KvmStack stack_{{.numCpus = 1, .ramSize = 64 * kMiB, .kvm = {}}};
    std::unique_ptr<RingPacer> pacer_;
    std::unique_ptr<wl::RingGuestOs> guest_;
    std::unique_ptr<core::Vm> vm_;
    std::unique_ptr<vdev::VringDevice> dev_;
    Cycles simCycles_ = 0;
};

/** Mutually-waking resumable pair state (pure scheduling, no VM). */
struct ParkPairState
{
    std::array<std::size_t, 2> idx{};
    std::atomic<unsigned> turnsA{0};
    std::atomic<unsigned> turnsB{0};
};

/** Execute @p plan on a pool of @p threads workers and return the outcome
 *  table. The schedule: ring/park pairs are submitted before start() (their
 *  notify wiring must exist before any step runs), wave-1 compute/spawner
 *  roots go through the live channel, a drain closes epoch 1, wave-2 roots
 *  form epoch 2, and shutdown() retires the pool. */
std::vector<Outcome>
runPlan(const Plan &plan, unsigned threads)
{
    SCOPED_TRACE("seed=" + std::to_string(plan.seed) +
                 " threads=" + std::to_string(threads));
    Fleet fleet(threads);
    std::vector<Outcome> outcomes(plan.outcomes);
    std::vector<std::unique_ptr<RingChannel>> channels;
    std::vector<std::unique_ptr<StressRingVm>> ringVms;
    std::vector<std::unique_ptr<ParkPairState>> parkPairs;
    std::vector<Fleet::JobResult> results;

    auto submitMachineRoot = [&fleet, &outcomes](const RootSpec &root,
                                                 std::size_t rootNo) {
        const std::string name = "root" + std::to_string(rootNo);
        if (root.kind == RootSpec::Kind::Compute) {
            fleet.submit(name, [&root, &outcomes] {
                StressVm vm;
                vm.bootAndWarm(root.self);
                vm.runWorkload(root.self, outcomes[root.outcomeBase]);
            });
            return;
        }
        // Spawner: boot, quiesce, snapshot, spawn clone jobs through the
        // live channel from inside this job body, then keep running.
        fleet.submit(name, [&fleet, &root, &outcomes, name] {
            StressVm vm;
            vm.bootAndWarm(root.self);
            std::shared_ptr<const MachineSnapshot> snap =
                vm.machine().takeSnapshot();
            for (std::size_t c = 0; c < root.clones.size(); ++c) {
                const VmSpec &cspec = root.clones[c];
                std::size_t slot = root.outcomeBase + 1 + c;
                fleet.submit(name + "-clone" + std::to_string(c),
                             [snap, &cspec, &outcomes, slot] {
                                 StressVm clone;
                                 clone.cloneFrom(*snap);
                                 clone.runWorkload(cspec, outcomes[slot]);
                             });
            }
            vm.runWorkload(root.self, outcomes[root.outcomeBase]);
        });
    };

    // Pre-start submissions: pairs whose notify wiring must be in place
    // before any worker steps them.
    for (std::size_t i = 0; i < plan.roots.size(); ++i) {
        const RootSpec &root = plan.roots[i];
        if (root.kind == RootSpec::Kind::RingPair) {
            channels.push_back(std::make_unique<RingChannel>(
                "stress-ring" + std::to_string(i), /*latency=*/20'000));
            RingChannel &ch = *channels.back();
            const char *half[2] = {"a", "b"};
            for (unsigned h = 0; h < 2; ++h) {
                ringVms.push_back(std::make_unique<StressRingVm>(
                    "root" + std::to_string(i) + half[h], ch.end(h),
                    /*initiator=*/h == 0, root.rounds));
                StressRingVm *rv = ringVms.back().get();
                std::size_t slot = root.outcomeBase + h;
                std::size_t idx = fleet.submitResumable(
                    "root" + std::to_string(i) + "-ring" + half[h],
                    [rv, &outcomes, slot] {
                        Fleet::StepOutcome o = rv->step();
                        if (o == Fleet::StepOutcome::Done)
                            outcomes[slot] = rv->outcome();
                        return o;
                    });
                rv->pacer().setWakeHook(
                    [&fleet, idx] { fleet.notify(idx); });
            }
        } else if (root.kind == RootSpec::Kind::ParkPair) {
            parkPairs.push_back(std::make_unique<ParkPairState>());
            ParkPairState *ps = parkPairs.back().get();
            const unsigned rounds = root.rounds;
            ps->idx[0] = fleet.submitResumable(
                "root" + std::to_string(i) + "-parkA",
                [&fleet, ps, rounds] {
                    unsigned t = ++ps->turnsA;
                    fleet.notify(ps->idx[1]);
                    return t < rounds ? Fleet::StepOutcome::Blocked
                                      : Fleet::StepOutcome::Done;
                });
            ps->idx[1] = fleet.submitResumable(
                "root" + std::to_string(i) + "-parkB",
                [&fleet, ps, rounds] {
                    unsigned t = ++ps->turnsB;
                    fleet.notify(ps->idx[0]);
                    return t < rounds ? Fleet::StepOutcome::Blocked
                                      : Fleet::StepOutcome::Done;
                });
        }
    }

    fleet.start();

    // Wave 1 through the live channel, then the mid-schedule drain.
    for (std::size_t i = 0; i < plan.roots.size(); ++i) {
        const RootSpec &root = plan.roots[i];
        if (root.secondWave || (root.kind != RootSpec::Kind::Compute &&
                                root.kind != RootSpec::Kind::Spawner))
            continue;
        submitMachineRoot(root, i);
    }
    for (Fleet::JobResult &r : fleet.drain())
        results.push_back(std::move(r));

    // Wave 2: a second epoch over the same (still-live) workers.
    for (std::size_t i = 0; i < plan.roots.size(); ++i) {
        const RootSpec &root = plan.roots[i];
        if (!root.secondWave || (root.kind != RootSpec::Kind::Compute &&
                                 root.kind != RootSpec::Kind::Spawner))
            continue;
        submitMachineRoot(root, i);
    }
    for (Fleet::JobResult &r : fleet.shutdown())
        results.push_back(std::move(r));

    for (const Fleet::JobResult &r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    for (const auto &ps : parkPairs) {
        EXPECT_EQ(ps->turnsA.load(), ps->turnsB.load());
        EXPECT_GT(ps->turnsA.load(), 0u);
    }
    EXPECT_EQ(fleet.epoch(), 2u);
    return outcomes;
}

/** Execute @p plan on the calling thread with no Fleet at all: the
 *  reference every pooled run must match. Compute and spawner roots run
 *  inline, a spawner's clones right after its snapshot; each ring pair is
 *  stepped round-robin until both sides are done. Park pairs produce no VM
 *  outcome and are skipped. */
std::vector<Outcome>
runPlanSerial(const Plan &plan)
{
    SCOPED_TRACE("seed=" + std::to_string(plan.seed) + " serial");
    std::vector<Outcome> outcomes(plan.outcomes);
    for (std::size_t i = 0; i < plan.roots.size(); ++i) {
        const RootSpec &root = plan.roots[i];
        switch (root.kind) {
          case RootSpec::Kind::Compute:
          case RootSpec::Kind::Spawner: {
            StressVm vm;
            vm.bootAndWarm(root.self);
            if (root.kind == RootSpec::Kind::Spawner) {
                std::shared_ptr<const MachineSnapshot> snap =
                    vm.machine().takeSnapshot();
                for (std::size_t c = 0; c < root.clones.size(); ++c) {
                    StressVm clone;
                    clone.cloneFrom(*snap);
                    clone.runWorkload(root.clones[c],
                                      outcomes[root.outcomeBase + 1 + c]);
                }
            }
            vm.runWorkload(root.self, outcomes[root.outcomeBase]);
            break;
          }
          case RootSpec::Kind::RingPair: {
            RingChannel ch("stress-ring" + std::to_string(i),
                           /*latency=*/20'000);
            StressRingVm a("root" + std::to_string(i) + "a", ch.end(0),
                           /*initiator=*/true, root.rounds);
            StressRingVm b("root" + std::to_string(i) + "b", ch.end(1),
                           /*initiator=*/false, root.rounds);
            StressRingVm *side[2] = {&a, &b};
            bool done[2] = {false, false};
            while (!done[0] || !done[1]) {
                bool progress = false;
                for (unsigned h = 0; h < 2; ++h) {
                    if (done[h])
                        continue;
                    std::uint64_t w0 = side[h]->pacer().windowsRun();
                    if (side[h]->step() == Fleet::StepOutcome::Done) {
                        done[h] = true;
                        outcomes[root.outcomeBase + h] = side[h]->outcome();
                    }
                    progress |=
                        done[h] || side[h]->pacer().windowsRun() != w0;
                }
                if (!progress) {
                    ADD_FAILURE() << "ring pair " << i << " wedged";
                    return outcomes;
                }
            }
            break;
          }
          case RootSpec::Kind::ParkPair:
            break;
        }
    }
    return outcomes;
}

void
expectSameOutcomes(const std::vector<Outcome> &got,
                   const std::vector<Outcome> &ref)
{
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("outcome " + std::to_string(i));
        EXPECT_EQ(got[i].simCycles, ref[i].simCycles);
        EXPECT_EQ(got[i].blob, ref[i].blob);
        EXPECT_GT(got[i].simCycles, 0u); // every slot was actually filled
    }
}

std::vector<std::uint64_t>
stressSeeds()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before any worker
    if (const char *env = std::getenv("KVMARM_STRESS_SEED"))
        return {std::strtoull(env, nullptr, 0)};
    return {0x5eedf1ee7ull, 0xa11cebabeull}; // the fixed tier-1 seed set
}

TEST(FleetStress, SeededScheduleIsBitIdenticalAcrossWorkerCounts)
{
    for (std::uint64_t seed : stressSeeds()) {
        Plan plan = makePlan(seed);
        std::vector<Outcome> ref = runPlanSerial(plan);
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " threads=" + std::to_string(threads));
            expectSameOutcomes(runPlan(plan, threads), ref);
        }
    }
}

TEST(FleetStress, EnforceModeScheduleMatchesUncheckedBitForBit)
{
    // Checking charges no simulated cycles, so the same schedule under
    // Enforce must reproduce the unchecked serial outcomes exactly — at
    // any worker count.
    const std::uint64_t seed = stressSeeds().front();
    Plan plan = makePlan(seed);
    std::vector<Outcome> ref = runPlanSerial(plan);
    check::ScopedCheckMode enforce(check::CheckMode::Enforce);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("enforce threads=" + std::to_string(threads));
        expectSameOutcomes(runPlan(plan, threads), ref);
    }
}

} // namespace
} // namespace kvmarm
