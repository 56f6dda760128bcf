/**
 * @file
 * Fleet executor tests: job completion across thread counts, round-robin
 * dealing with job stealing, error capture, fault-injection isolation,
 * resumable jobs, and the long-lived pool's epochs, spawns and shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/kvm_stack.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"

namespace kvmarm {
namespace {

TEST(Fleet, RunsEveryJobAndKeepsSubmissionOrder)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        Fleet fleet(threads);
        std::atomic<unsigned> ran{0};
        for (int i = 0; i < 12; ++i) {
            fleet.submit("job" + std::to_string(i), [&ran] { ++ran; });
        }
        fleet.start();
        std::vector<Fleet::JobResult> results = fleet.shutdown();
        EXPECT_EQ(ran.load(), 12u);
        ASSERT_EQ(results.size(), 12u);
        for (int i = 0; i < 12; ++i) {
            EXPECT_TRUE(results[i].ok);
            EXPECT_EQ(results[i].name, "job" + std::to_string(i));
            EXPECT_LT(results[i].worker, fleet.threads());
        }
        EXPECT_EQ(fleet.stats().jobsRun, 12u);
    }
}

TEST(Fleet, StealsFromALoadedWorker)
{
    // Two workers, round-robin deal: worker 0 gets jobs 0/2/4/6, worker 1
    // gets 1/3/5/7. Job 0 parks worker 0 until every other job has run —
    // which can only happen if worker 1 steals worker 0's remaining jobs.
    Fleet fleet(2);
    std::atomic<unsigned> others{0};
    fleet.submit("long", [&others] {
        // Parking, not sleeping: deterministic on any host core count.
        while (others.load() < 7)
            std::this_thread::yield();
    });
    for (int i = 1; i < 8; ++i)
        fleet.submit("short" + std::to_string(i), [&others] { ++others; });

    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    for (const Fleet::JobResult &r : results)
        EXPECT_TRUE(r.ok) << r.name;
    EXPECT_EQ(fleet.stats().jobsRun, 8u);
    // Jobs 2/4/6 were dealt to the parked worker 0; worker 1 stole them.
    EXPECT_GE(fleet.stats().jobsStolen, 3u);
    EXPECT_TRUE(results[2].stolen);
    EXPECT_EQ(results[2].worker, 1u);
}

TEST(Fleet, CapturesJobExceptionsWithoutKillingTheFleet)
{
    Fleet fleet(2);
    fleet.submit("ok0", [] {});
    fleet.submit("boom", [] { fatal("deliberate fleet-test failure"); });
    fleet.submit("ok1", [] {});

    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("deliberate fleet-test failure"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);
    EXPECT_EQ(fleet.stats().jobsRun, 3u);
}

TEST(Fleet, ZeroThreadsMeansHardwareConcurrency)
{
    Fleet fleet(0);
    EXPECT_GE(fleet.threads(), 1u);
    bool ran = false;
    fleet.submit("probe", [&ran] { ran = true; });
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(results[0].ok);
}

TEST(Fleet, RejectsEmptyJob)
{
    Fleet fleet(1);
    EXPECT_THROW(fleet.submit("hollow", Fleet::JobFn{}), FatalError);
}

/** Everything observable a full-stack VM job produced. */
struct VmOutcome
{
    Cycles simCycles = 0;
    std::string statDump;
};

/**
 * One self-contained full-stack VM (machine + host kernel + KVM + 1-VCPU
 * guest) with an index-dependent workload mix. When @p fail is set the
 * guest runs a truncated workload and the job throws before producing any
 * results, modelling a VM job dying half-way through a fleet run while
 * other jobs are still in flight.
 */
VmOutcome
runFleetVm(unsigned index, bool fail = false)
{
    VmOutcome out;
    core::KvmStack stack({.numCpus = 1, .ramSize = 64 * kMiB, .kvm = {}});

    stack.onCpu(0, [&](arm::ArmCpu &cpu) {
        std::unique_ptr<core::Vm> vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);

        vcpu.run(cpu, [&](arm::ArmCpu &c) {
            Cycles sim0 = c.now();
            const Addr page = vm->ramBase() + 0x4000;
            for (std::uint64_t i = 0; i < 500 + 100 * index; ++i)
                c.memRead(page + ((i & 31) * 8), 4);
            if (fail)
                return; // dies before finishing its workload
            for (std::uint64_t i = 0; i < 50 + 10 * index; ++i)
                c.hvc(core::hvc::kTestHypercall);
            out.simCycles = c.now() - sim0;
        });
    });
    stack.machine.run();
    if (fail)
        fatal("fleet-test: injected VM failure");

    std::ostringstream os;
    stack.machine.cpu(0).stats().dump(os, "cpu0.");
    out.statDump = os.str();
    return out;
}

TEST(Fleet, FaultInjectedJobLeavesSurvivorsBitIdentical)
{
    // Reference run: 6 VMs, nobody fails.
    constexpr unsigned kVms = 6;
    std::vector<VmOutcome> clean(kVms);
    {
        Fleet fleet(4);
        for (unsigned i = 0; i < kVms; ++i) {
            fleet.submit("vm" + std::to_string(i),
                         [i, &clean] { clean[i] = runFleetVm(i); });
        }
        fleet.start();
        for (const Fleet::JobResult &r : fleet.shutdown())
            ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
    }

    // Same fleet, but VM 2 throws mid-workload.
    std::vector<VmOutcome> faulty(kVms);
    Fleet fleet(4);
    for (unsigned i = 0; i < kVms; ++i) {
        fleet.submit("vm" + std::to_string(i), [i, &faulty] {
            faulty[i] = runFleetVm(i, /*fail=*/i == 2);
        });
    }
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();

    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("injected VM failure"),
              std::string::npos);
    EXPECT_EQ(fleet.stats().jobsRun, kVms);

    // Every surviving VM's simulated execution is bit-identical to the
    // no-failure fleet: a dying job takes nothing and disturbs nothing.
    for (unsigned i = 0; i < kVms; ++i) {
        if (i == 2)
            continue;
        SCOPED_TRACE("vm" + std::to_string(i));
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_GT(faulty[i].simCycles, 0u);
        EXPECT_EQ(faulty[i].simCycles, clean[i].simCycles);
        EXPECT_EQ(faulty[i].statDump, clean[i].statDump);
    }
}

TEST(Fleet, WallTimeIsMeasuredPerJob)
{
    Fleet fleet(1);
    fleet.submit("sleepy", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    EXPECT_GE(results[0].wallSeconds, 0.015);
}

TEST(Fleet, ResumableJobParksAndResumesOnNotify)
{
    for (unsigned threads : {1u, 2u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        Fleet fleet(threads);
        std::atomic<unsigned> waiterSteps{0};
        std::atomic<bool> started{false};
        std::size_t waiter = fleet.submitResumable("waiter", [&] {
            started = true;
            return ++waiterSteps == 1 ? Fleet::StepOutcome::Blocked
                                      : Fleet::StepOutcome::Done;
        });
        // A notify before the first step would target a Queued job (a
        // no-op); wait until the waiter has actually started stepping.
        fleet.submit("waker", [&] {
            while (!started)
                std::this_thread::yield();
            fleet.notify(waiter);
        });

        fleet.start();
        std::vector<Fleet::JobResult> results = fleet.shutdown();
        EXPECT_TRUE(results[0].ok) << results[0].error;
        EXPECT_TRUE(results[1].ok) << results[1].error;
        EXPECT_EQ(waiterSteps.load(), 2u);
        EXPECT_EQ(results[0].steps, 2u);
        if (threads == 1) {
            EXPECT_GE(fleet.stats().jobsParked, 1u);
        }
    }
}

TEST(Fleet, NotifyWhileRunningIsLatchedNotLost)
{
    // The classic lost-wakeup: the notify lands while the job is still
    // executing the step that is about to return Blocked. The fleet must
    // latch it and convert the park into an immediate re-queue.
    Fleet fleet(2);
    std::atomic<bool> stepStarted{false};
    std::atomic<bool> notified{false};
    std::atomic<unsigned> steps{0};
    std::size_t waiter = fleet.submitResumable("waiter", [&] {
        if (++steps == 1) {
            stepStarted = true;
            // Hold the step open until the notify has already happened.
            while (!notified)
                std::this_thread::yield();
            return Fleet::StepOutcome::Blocked;
        }
        return Fleet::StepOutcome::Done;
    });
    fleet.submit("waker", [&] {
        while (!stepStarted)
            std::this_thread::yield();
        fleet.notify(waiter); // waiter is mid-step: must latch
        notified = true;
    });
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(steps.load(), 2u);
}

TEST(Fleet, WakeFromAJobBodyRunsOnTheWakersWorker)
{
    // Two workers, round-robin deal: the waiter and the hog go to worker
    // 0, the waker to worker 1. The waiter parks, then the hog holds
    // worker 0 until the waiter has run again. The waker's notify queues
    // the waiter on worker 1's own deque, so worker 1 runs it next
    // without taking it from worker 0's.
    Fleet fleet(2);
    std::atomic<bool> hogRunning{false};
    std::atomic<bool> waiterDone{false};
    std::atomic<unsigned> waiterSteps{0};
    std::size_t waiter = fleet.submitResumable("waiter", [&] {
        if (++waiterSteps == 1)
            return Fleet::StepOutcome::Blocked;
        waiterDone = true;
        return Fleet::StepOutcome::Done;
    });
    fleet.submit("waker", [&] {
        // The hog starts on worker 0 only after the waiter's first step
        // returned there, so the waiter is parked by now.
        while (!hogRunning)
            std::this_thread::yield();
        fleet.notify(waiter);
    });
    fleet.submit("hog", [&] {
        hogRunning = true;
        while (!waiterDone)
            std::this_thread::yield();
    });
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    for (const Fleet::JobResult &r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].steps, 2u);
    EXPECT_EQ(results[0].worker, 1u);
    EXPECT_FALSE(results[0].stolen);
    EXPECT_EQ(results[2].worker, 0u);
    EXPECT_EQ(fleet.stats().jobsStolen, 0u);
    EXPECT_EQ(fleet.stats().jobsParked, 1u);
}

TEST(Fleet, ParkedJobWithNoWakerIsAFleetDeadlock)
{
    // A job that parks with no runnable peer left to wake it must be
    // failed with a diagnostic, not hang the fleet forever.
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        Fleet fleet(threads);
        fleet.submitResumable("stuck",
                              [] { return Fleet::StepOutcome::Blocked; });
        fleet.submit("bystander", [] {});
        fleet.start();
        std::vector<Fleet::JobResult> results = fleet.shutdown();
        EXPECT_FALSE(results[0].ok);
        EXPECT_NE(results[0].error.find("fleet rendezvous deadlock"),
                  std::string::npos)
            << results[0].error;
        EXPECT_TRUE(results[1].ok);
    }
}

TEST(Fleet, SingleThreadAlternatesCommunicatingJobs)
{
    // Two mutually-waking resumable jobs on ONE worker thread: parking
    // must degrade to serial alternation, never a blocked worker.
    Fleet fleet(1);
    constexpr unsigned kRounds = 10;
    unsigned turnsA = 0, turnsB = 0; // single thread: no atomics needed
    std::size_t ia = 0, ib = 0;
    ia = fleet.submitResumable("a", [&] {
        ++turnsA;
        EXPECT_EQ(turnsA, turnsB + 1); // strict A,B,A,B alternation
        fleet.notify(ib);
        return turnsA < kRounds ? Fleet::StepOutcome::Blocked
                                : Fleet::StepOutcome::Done;
    });
    ib = fleet.submitResumable("b", [&] {
        ++turnsB;
        EXPECT_EQ(turnsB, turnsA);
        fleet.notify(ia);
        return turnsB < kRounds ? Fleet::StepOutcome::Blocked
                                : Fleet::StepOutcome::Done;
    });
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(turnsA, kRounds);
    EXPECT_EQ(turnsB, kRounds);
}

TEST(Fleet, NotifyOutsideRunIsHarmless)
{
    Fleet fleet(1);
    std::size_t idx =
        fleet.submitResumable("x", [] { return Fleet::StepOutcome::Done; });
    fleet.notify(idx);        // before start(): no-op
    fleet.notify(idx + 1000); // out of range: no-op
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    EXPECT_TRUE(results[0].ok);
    fleet.notify(idx); // after shutdown(): no-op
}

TEST(Fleet, SubmitFeedsALivePoolAcrossEpochs)
{
    Fleet fleet(2);
    std::atomic<unsigned> ran{0};
    fleet.submit("pre-start", [&ran] { ++ran; }); // queued until start()
    EXPECT_FALSE(fleet.poolLive());
    fleet.start();
    EXPECT_TRUE(fleet.poolLive());
    for (int i = 0; i < 5; ++i)
        fleet.submit("live" + std::to_string(i), [&ran] { ++ran; });

    std::vector<Fleet::JobResult> first = fleet.drain();
    EXPECT_EQ(ran.load(), 6u);
    ASSERT_EQ(first.size(), 6u);
    // Result order is the external submission order, not completion order.
    EXPECT_EQ(first[0].name, "pre-start");
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(first[i + 1].name, "live" + std::to_string(i));
        EXPECT_EQ(first[i + 1].submitter, Fleet::kExternalSubmitter);
    }
    EXPECT_EQ(fleet.epoch(), 1u);

    // The pool survives the drain: a second epoch over the same workers.
    fleet.submit("second-epoch", [&ran] { ++ran; });
    std::vector<Fleet::JobResult> second = fleet.drain();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(second[0].ok);
    EXPECT_EQ(second[0].name, "second-epoch");
    EXPECT_EQ(ran.load(), 7u);
    EXPECT_EQ(fleet.epoch(), 2u);

    EXPECT_TRUE(fleet.shutdown().empty());
    EXPECT_FALSE(fleet.poolLive());
}

TEST(Fleet, JobsCanSpawnJobsWithDeterministicResultOrder)
{
    // "VMs spawning VMs": a running job submits children through the live
    // channel. Results come out keyed by (submitter, seq) path — children
    // directly after their parent in spawn order, external jobs in
    // submission order — no matter which worker finished first.
    for (unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        Fleet fleet(threads);
        fleet.start();
        std::atomic<unsigned> children{0};
        fleet.submit("parent", [&fleet, &children] {
            for (int c = 0; c < 4; ++c) {
                fleet.submit("child" + std::to_string(c),
                             [&children] { ++children; });
            }
        });
        fleet.submit("bystander", [] {});

        std::vector<Fleet::JobResult> results = fleet.drain();
        ASSERT_EQ(results.size(), 6u);
        EXPECT_EQ(results[0].name, "parent");
        for (int c = 0; c < 4; ++c) {
            EXPECT_EQ(results[c + 1].name, "child" + std::to_string(c));
            EXPECT_NE(results[c + 1].submitter, Fleet::kExternalSubmitter);
            EXPECT_EQ(results[c + 1].seq, static_cast<std::uint64_t>(c));
            EXPECT_TRUE(results[c + 1].ok);
        }
        EXPECT_EQ(results[5].name, "bystander");
        EXPECT_EQ(children.load(), 4u);
        EXPECT_EQ(fleet.stats().jobsSpawned, 4u);
        fleet.shutdown();
    }
}

TEST(Fleet, DrainWaitsForInFlightSpawns)
{
    // The drain starts while the spawner is still submitting; every
    // transitively spawned job must be included in the same epoch.
    Fleet fleet(2);
    fleet.start();
    std::atomic<unsigned> depth{0};
    std::function<void(unsigned)> spawnChain =
        [&fleet, &depth, &spawnChain](unsigned level) {
            ++depth;
            if (level < 5) {
                fleet.submit("level" + std::to_string(level + 1),
                             [&spawnChain, level] { spawnChain(level + 1); });
            }
        };
    fleet.submit("level0", [&spawnChain] { spawnChain(0); });

    std::vector<Fleet::JobResult> results = fleet.drain();
    EXPECT_EQ(depth.load(), 6u);
    ASSERT_EQ(results.size(), 6u);
    for (const Fleet::JobResult &r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    // Each level spawned the next: the path ordering walks the chain.
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(results[i].name, "level" + std::to_string(i));
    fleet.shutdown();
}

TEST(Fleet, SpawnedChildFailureIsCapturedWithoutWedgingTheWorkers)
{
    Fleet fleet(2);
    fleet.start();
    fleet.submit("parent", [&fleet] {
        fleet.submit("doomed-child",
                     [] { fatal("deliberate spawned-child failure"); });
        fleet.submit("healthy-child", [] {});
    });

    std::vector<Fleet::JobResult> results = fleet.drain();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("deliberate spawned-child failure"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);

    // No worker was wedged by the child's exception: the pool still takes
    // and finishes work.
    bool ran = false;
    fleet.submit("after-failure", [&ran] { ran = true; });
    std::vector<Fleet::JobResult> second = fleet.drain();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(second[0].ok);
    EXPECT_TRUE(ran);
    fleet.shutdown();
}

TEST(Fleet, SubmitAfterShutdownIsAHardError)
{
    Fleet fleet(1);
    fleet.start();
    fleet.submit("only", [] {});
    std::vector<Fleet::JobResult> last = fleet.shutdown();
    ASSERT_EQ(last.size(), 1u);
    EXPECT_TRUE(last[0].ok);

    EXPECT_THROW(fleet.submit("too-late", [] {}), FatalError);
    try {
        fleet.submit("too-late", [] {});
        FAIL() << "submit after shutdown() must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("after shutdown()"),
                  std::string::npos)
            << e.what();
    }
    // The channel is closed for good: restart and re-shutdown are errors.
    EXPECT_THROW(fleet.start(), FatalError);
    EXPECT_THROW(fleet.shutdown(), FatalError);
}

TEST(Fleet, ParkedJobSurvivesBetweenEpochsUntilNotified)
{
    // Between drains a parked job is NOT a rendezvous deadlock: the owner
    // can still notify() it. Only a drain turns "parked with no runnable
    // peer" into a failure.
    Fleet fleet(2);
    fleet.start();
    std::atomic<unsigned> steps{0};
    std::size_t waiter = fleet.submitResumable("waiter", [&steps] {
        return ++steps == 1 ? Fleet::StepOutcome::Blocked
                            : Fleet::StepOutcome::Done;
    });
    // Let the first step park the job.
    while (steps.load() == 0)
        std::this_thread::yield();
    fleet.notify(waiter); // external wake between epochs
    std::vector<Fleet::JobResult> results = fleet.drain();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(steps.load(), 2u);
    fleet.shutdown();
}

TEST(Fleet, RunMayCarryMidRunSpawnsDeterministically)
{
    // A batch (submit, start, shutdown) accepts submissions from job
    // bodies too (the batch is just one pool epoch); the result layout is
    // identical at any worker count.
    std::vector<std::string> refNames;
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        Fleet fleet(threads);
        for (int i = 0; i < 3; ++i) {
            fleet.submit("root" + std::to_string(i), [&fleet, i] {
                for (int c = 0; c < 2; ++c) {
                    fleet.submit("spawn" + std::to_string(i) +
                                     std::to_string(c),
                                 [] {});
                }
            });
        }
        fleet.start();
        std::vector<Fleet::JobResult> results = fleet.shutdown();
        ASSERT_EQ(results.size(), 9u);
        std::vector<std::string> names;
        names.reserve(results.size());
        for (const Fleet::JobResult &r : results) {
            EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
            names.push_back(r.name);
        }
        if (refNames.empty())
            refNames = names;
        else
            EXPECT_EQ(names, refNames);
    }
}

/** Wait (yielding) until @p done holds, for at most 60 s. */
template <class Pred>
bool
waitFor(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(Fleet, ConcurrentNotifiesNeverRunOneJobsStepTwiceAtOnce)
{
    // Every job is woken at once by two external threads and by the other
    // jobs' bodies, so Parked->Queued, Running->Woken and the re-queue of
    // a latched wake all race. A job's steps must still never overlap,
    // and every wake that matters must land: each job finishes.
    constexpr unsigned kJobs = 8;
    constexpr unsigned kSteps = 200;
    Fleet fleet(4);
    std::atomic<bool> inStep[kJobs] = {};
    std::atomic<unsigned> steps[kJobs] = {};
    std::atomic<unsigned> overlaps{0};
    std::atomic<unsigned> finished{0};
    std::size_t idx[kJobs] = {};
    for (unsigned j = 0; j < kJobs; ++j) {
        idx[j] = fleet.submitResumable(
            "job" + std::to_string(j), [&, j] {
                if (inStep[j].exchange(true))
                    ++overlaps;
                std::this_thread::yield();
                const unsigned n = ++steps[j];
                // Wake two peers from inside the body.
                fleet.notify(idx[(j + 1) % kJobs]);
                fleet.notify(idx[(j + n) % kJobs]);
                inStep[j] = false;
                if (n < kSteps)
                    return Fleet::StepOutcome::Blocked;
                ++finished;
                return Fleet::StepOutcome::Done;
            });
    }
    fleet.start();
    std::atomic<bool> stop{false};
    auto external = [&](unsigned first) {
        for (unsigned k = first; !stop; ++k)
            fleet.notify(idx[k % kJobs]);
    };
    std::thread t0(external, 0u);
    std::thread t1(external, kJobs / 2);
    const bool allDone = waitFor([&] { return finished == kJobs; });
    stop = true;
    t0.join();
    t1.join();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    EXPECT_TRUE(allDone);
    EXPECT_EQ(overlaps.load(), 0u);
    ASSERT_EQ(results.size(), kJobs);
    for (unsigned j = 0; j < kJobs; ++j) {
        EXPECT_TRUE(results[j].ok) << results[j].name << ": "
                                   << results[j].error;
        EXPECT_EQ(results[j].steps, kSteps);
        EXPECT_EQ(steps[j].load(), kSteps);
    }
}

TEST(Fleet, ExternalNotifyRacingTheDeadlockSweepRunsOrFailsTheJobOnce)
{
    // The drain's sweep fails a parked job exactly when an external
    // notify() may be re-queueing it. One of them wins: the job either
    // runs its second step and succeeds, or fails with the deadlock
    // diagnostic and never steps again.
    unsigned ran = 0;
    unsigned failed = 0;
    for (unsigned round = 0; round < 200; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        Fleet fleet(2);
        std::atomic<unsigned> steps{0};
        std::size_t waiter = fleet.submitResumable("waiter", [&steps] {
            return ++steps == 1 ? Fleet::StepOutcome::Blocked
                                : Fleet::StepOutcome::Done;
        });
        std::atomic<bool> go{false};
        std::thread waker([&fleet, &go, waiter, round] {
            while (!go)
                std::this_thread::yield();
            for (unsigned spin = 0; spin < round % 8; ++spin)
                std::this_thread::yield();
            fleet.notify(waiter);
        });
        fleet.start();
        EXPECT_TRUE(waitFor([&] { return steps.load() == 1; }));
        go = true;
        std::vector<Fleet::JobResult> results = fleet.drain();
        waker.join();
        const unsigned stepsAtDrain = steps.load();
        fleet.notify(waiter); // a finished job never steps again
        fleet.shutdown();
        ASSERT_EQ(results.size(), 1u);
        EXPECT_EQ(steps.load(), stepsAtDrain);
        if (results[0].ok) {
            EXPECT_EQ(stepsAtDrain, 2u);
            EXPECT_EQ(results[0].steps, 2u);
            ++ran;
        } else {
            EXPECT_NE(results[0].error.find("fleet rendezvous deadlock"),
                      std::string::npos)
                << results[0].error;
            EXPECT_EQ(stepsAtDrain, 1u);
            EXPECT_EQ(results[0].steps, 1u);
            ++failed;
        }
    }
    EXPECT_EQ(ran + failed, 200u);
}

TEST(Fleet, SpawnsGrowTheJobTableWhilePairsStepAndNotify)
{
    // Spawners submit hundreds of jobs from their bodies, growing the job
    // table through several chunks, while mutually waking pairs step and
    // notify each other on the other workers.
    constexpr unsigned kPairs = 3;
    constexpr unsigned kRounds = 300;
    constexpr unsigned kSpawners = 3;
    constexpr unsigned kChildren = 400;
    Fleet fleet(4);
    struct Pair
    {
        std::size_t idx[2] = {};
        std::atomic<unsigned> turns[2] = {};
    };
    Pair pairs[kPairs];
    for (Pair &p : pairs) {
        for (unsigned h = 0; h < 2; ++h) {
            p.idx[h] = fleet.submitResumable(
                "pair" + std::to_string(h), [&fleet, &p, h] {
                    const unsigned t = ++p.turns[h];
                    fleet.notify(p.idx[1 - h]);
                    return t < kRounds ? Fleet::StepOutcome::Blocked
                                       : Fleet::StepOutcome::Done;
                });
        }
    }
    std::atomic<unsigned> children{0};
    for (unsigned s = 0; s < kSpawners; ++s) {
        fleet.submit("spawner" + std::to_string(s), [&fleet, &children] {
            for (unsigned c = 0; c < kChildren; ++c)
                fleet.submit("child", [&children] { ++children; });
        });
    }
    fleet.start();
    std::vector<Fleet::JobResult> results = fleet.shutdown();
    ASSERT_EQ(results.size(), 2 * kPairs + kSpawners * (1 + kChildren));
    for (const Fleet::JobResult &r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    for (const Pair &p : pairs) {
        EXPECT_EQ(p.turns[0].load(), kRounds);
        EXPECT_EQ(p.turns[1].load(), kRounds);
    }
    EXPECT_EQ(children.load(), kSpawners * kChildren);
    EXPECT_EQ(fleet.stats().jobsSpawned, kSpawners * kChildren);
}

} // namespace
} // namespace kvmarm
