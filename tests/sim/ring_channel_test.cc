/**
 * @file
 * RingChannel / RingPacer tests: the deterministic cross-machine channel
 * and its conservative time-window rendezvous protocol (DESIGN.md §4.10).
 *
 * Covers the protocol edge cases: zero lookahead is rejected outright,
 * window-order delivery, snapshot blockers while an endpoint is attached,
 * a peer terminating mid-wait unblocking the waiter with an error instead
 * of a hang, true rendezvous deadlock detection, wakes that reach only a
 * parked pacer, and bit-identical ping-pong execution between serial
 * round-robin and parked/fleet-driven stepping.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arm/machine.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"
#include "sim/ring_channel.hh"

namespace kvmarm {
namespace {

using arm::ArmMachine;

ArmMachine::Config
smallConfig()
{
    ArmMachine::Config c;
    c.numCpus = 1;
    c.ramSize = 32 * kMiB;
    return c;
}

std::vector<std::uint8_t>
bytes(std::initializer_list<std::uint8_t> b)
{
    return std::vector<std::uint8_t>(b);
}

TEST(RingChannel, ZeroLookaheadIsRejected)
{
    // Zero latency means zero lookahead: no window in which the two
    // machines could ever run concurrently. Reject, don't serialize.
    EXPECT_THROW(RingChannel("z", 0), FatalError);
}

TEST(RingChannel, DeliversInWindowOrder)
{
    RingChannel ch("order", 100);
    std::vector<std::uint64_t> seqs;
    std::vector<Cycles> cycles;
    ch.end(1).setReceiver([&](const RingMessage &m) {
        seqs.push_back(m.seq);
        cycles.push_back(m.deliverCycle);
    });
    EXPECT_EQ(ch.end(0).send(10, bytes({1})), 0u);  // delivers at 110
    EXPECT_EQ(ch.end(0).send(50, bytes({2})), 1u);  // delivers at 150
    EXPECT_EQ(ch.end(0).send(210, bytes({3})), 2u); // delivers at 310

    ch.pull(1, 0, 100); // nothing deliverable yet
    EXPECT_TRUE(seqs.empty());
    ch.pull(1, 100, 200);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(cycles, (std::vector<Cycles>{110, 150}));
    ch.pull(1, 200, 400);
    EXPECT_EQ(seqs.size(), 3u);
    EXPECT_EQ(ch.messagesSent(0), 3u);
}

TEST(RingChannel, MessageBelowPullWindowIsAProtocolViolation)
{
    RingChannel ch("below", 100);
    ch.end(1).setReceiver([](const RingMessage &) {});
    ch.end(0).send(10, bytes({1})); // delivers at 110
    // A pacer that skipped the [100, 200) window would silently reorder
    // time; the channel refuses.
    EXPECT_THROW(ch.pull(1, 200, 300), FatalError);
}

TEST(RingChannel, SendToClosedOrAbortedPeerIsFatal)
{
    {
        RingChannel ch("closed", 100);
        ch.close(1);
        EXPECT_THROW(ch.end(0).send(10, bytes({1})), FatalError);
    }
    {
        RingChannel ch("aborted", 100);
        ch.abort(1, "peer died");
        EXPECT_THROW(ch.end(0).send(10, bytes({1})), FatalError);
    }
}

TEST(RingChannel, AwaitHorizonWakesOnlyAtTheNeed)
{
    RingChannel ch("await", 100);
    unsigned wakes = 0;
    ch.end(0).setWakeHook([&wakes] { ++wakes; });

    // With nothing recorded, a publish wakes no one.
    ch.publish(1, 100, false);
    EXPECT_EQ(wakes, 0u);
    // The peer already reached the need: nothing is recorded...
    EXPECT_FALSE(ch.awaitHorizon(0, 100));
    ch.publish(1, 200, false);
    EXPECT_EQ(wakes, 0u); // ... so no wake follows.

    // Below the need: recorded. A publish short of it wakes no one; the
    // one that reaches it wakes once and clears the need.
    EXPECT_TRUE(ch.awaitHorizon(0, 500));
    ch.publish(1, 400, false);
    EXPECT_EQ(wakes, 0u);
    ch.publish(1, 500, false);
    EXPECT_EQ(wakes, 1u);
    ch.publish(1, 600, false);
    EXPECT_EQ(wakes, 1u);

    // A publish past the need wakes too.
    EXPECT_TRUE(ch.awaitHorizon(0, 650));
    ch.publish(1, 900, false);
    EXPECT_EQ(wakes, 2u);

    // Publishes by the waiting side itself never wake it.
    EXPECT_TRUE(ch.awaitHorizon(0, 1000));
    ch.publish(0, 2000, false);
    EXPECT_EQ(wakes, 2u);
}

TEST(RingChannel, CloseAndAbortAlwaysWake)
{
    for (bool aborting : {false, true}) {
        SCOPED_TRACE(aborting ? "abort" : "close");
        RingChannel ch("end", 100);
        unsigned wakes = 0;
        ch.end(0).setWakeHook([&wakes] { ++wakes; });
        // No need recorded, and the peer's horizon never moved.
        if (aborting)
            ch.abort(1, "gone");
        else
            ch.close(1);
        EXPECT_EQ(wakes, 1u);
        // Nothing can wake a side parked on a finished peer.
        EXPECT_FALSE(ch.awaitHorizon(0, 500));
    }
    RingChannel ch("parked", 100);
    unsigned wakes = 0;
    ch.end(0).setWakeHook([&wakes] { ++wakes; });
    EXPECT_TRUE(ch.awaitHorizon(0, 500));
    ch.close(1); // short of the need, yet the end of the peer wakes
    EXPECT_EQ(wakes, 1u);
}

/** A machine whose entry ping-pongs @p rounds payloads over @p ep. */
struct PingMachine
{
    PingMachine(RingChannel::Endpoint &ep, bool initiator, unsigned rounds)
        : machine(smallConfig()), pacer(machine, initiator ? "ping" : "pong")
    {
        pacer.attach(ep);
        CpuBase &cpu = machine.cpu(0);
        ep.setReceiver([this, &cpu](const RingMessage &msg) {
            cpu.events().schedule(msg.deliverCycle, [this, msg] {
                ++received;
                lastPayload = msg.payload;
                digest = digest * 1099511628211ull + msg.deliverCycle;
            });
        });
        machine.cpu(0).setEntry([this, &ep, &cpu, initiator, rounds] {
            for (unsigned r = 0; r < rounds; ++r) {
                if (initiator) {
                    cpu.addCycles(700); // compose
                    ep.send(cpu.now(), {std::uint8_t(r)});
                    std::uint64_t want = received + 1;
                    cpu.waitUntil([this, want] { return received >= want; });
                } else {
                    std::uint64_t want = received + 1;
                    cpu.waitUntil([this, want] { return received >= want; });
                    cpu.addCycles(300); // "process"
                    ep.send(cpu.now(), lastPayload);
                }
            }
        });
    }

    Fleet::StepOutcome
    step()
    {
        return pacer.step() == RingPacer::Step::Done
                   ? Fleet::StepOutcome::Done
                   : Fleet::StepOutcome::Blocked;
    }

    ArmMachine machine;
    RingPacer pacer;
    std::uint64_t received = 0;
    std::uint64_t digest = 0x811c9dc5;
    std::vector<std::uint8_t> lastPayload;
};

/** Serial round-robin driver; fatals if a full round makes no progress. */
void
driveSerial(std::vector<PingMachine *> vms)
{
    while (true) {
        bool all_done = true;
        bool progress = false;
        for (PingMachine *vm : vms) {
            std::uint64_t w0 = vm->pacer.windowsRun();
            Fleet::StepOutcome s = vm->step();
            if (s != Fleet::StepOutcome::Done)
                all_done = false;
            if (s == Fleet::StepOutcome::Done ||
                vm->pacer.windowsRun() != w0)
                progress = true;
        }
        if (all_done)
            return;
        ASSERT_TRUE(progress) << "round-robin wedged";
    }
}

struct PingResult
{
    Cycles cycles0, cycles1;
    std::uint64_t digest0, digest1;
};

PingResult
runPingPongSerial(unsigned rounds, Cycles latency)
{
    RingChannel ch("pp", latency);
    PingMachine a(ch.end(0), true, rounds);
    PingMachine b(ch.end(1), false, rounds);
    driveSerial({&a, &b});
    return {a.machine.cpu(0).now(), b.machine.cpu(0).now(), a.digest,
            b.digest};
}

PingResult
runPingPongFleet(unsigned rounds, Cycles latency, unsigned threads)
{
    RingChannel ch("pp", latency);
    Fleet fleet(threads);
    PingMachine a(ch.end(0), true, rounds);
    PingMachine b(ch.end(1), false, rounds);
    std::size_t ia = fleet.submitResumable("a", [&a] { return a.step(); });
    std::size_t ib = fleet.submitResumable("b", [&b] { return b.step(); });
    a.pacer.setWakeHook([&fleet, ia] { fleet.notify(ia); });
    b.pacer.setWakeHook([&fleet, ib] { fleet.notify(ib); });
    fleet.start();
    for (const Fleet::JobResult &j : fleet.shutdown())
        EXPECT_TRUE(j.ok) << j.name << ": " << j.error;
    return {a.machine.cpu(0).now(), b.machine.cpu(0).now(), a.digest,
            b.digest};
}

TEST(RingPacer, PingPongIsBitIdenticalSerialVsFleet)
{
    const unsigned rounds = 40;
    const Cycles latency = 5000;
    PingResult ref = runPingPongSerial(rounds, latency);
    EXPECT_GT(ref.digest0, 0x811c9dc5u); // messages actually flowed
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        PingResult r = runPingPongFleet(rounds, latency, threads);
        EXPECT_EQ(r.cycles0, ref.cycles0) << threads << " threads";
        EXPECT_EQ(r.cycles1, ref.cycles1) << threads << " threads";
        EXPECT_EQ(r.digest0, ref.digest0) << threads << " threads";
        EXPECT_EQ(r.digest1, ref.digest1) << threads << " threads";
    }
}

TEST(RingPacer, SerialPingPongWakesOnlyParkedPacers)
{
    // Round-robin two pacers with counting wake hooks. A wake reaches a
    // pacer only after it parked (its need reached, or the peer closed),
    // and every park is answered before the pacer's next step: with one
    // ring the peer cannot block below a parked pacer's need.
    const unsigned rounds = 40;
    const Cycles latency = 5000;
    RingChannel ch("pp", latency);
    PingMachine a(ch.end(0), true, rounds);
    PingMachine b(ch.end(1), false, rounds);
    PingMachine *vms[2] = {&a, &b};
    unsigned wakes[2] = {0, 0};
    unsigned blocked[2] = {0, 0};
    bool owed[2] = {false, false};
    for (unsigned i = 0; i < 2; ++i)
        vms[i]->pacer.setWakeHook([&wakes, &owed, i] {
            ++wakes[i];
            owed[i] = false;
        });
    bool done[2] = {false, false};
    while (!done[0] || !done[1]) {
        for (unsigned i = 0; i < 2; ++i) {
            if (done[i])
                continue;
            ASSERT_FALSE(owed[i]) << "side " << i << " parked, never woken";
            if (vms[i]->step() == Fleet::StepOutcome::Done) {
                done[i] = true;
            } else {
                ++blocked[i];
                owed[i] = true;
            }
        }
    }
    const unsigned closes = 1; // the peer's one close
    for (unsigned i = 0; i < 2; ++i) {
        EXPECT_GT(blocked[i], 0u) << "side " << i;
        EXPECT_LE(wakes[i], blocked[i] + closes) << "side " << i;
    }
    PingResult ref = runPingPongSerial(rounds, latency);
    EXPECT_EQ(a.machine.cpu(0).now(), ref.cycles0);
    EXPECT_EQ(b.machine.cpu(0).now(), ref.cycles1);
    EXPECT_EQ(a.digest, ref.digest0);
    EXPECT_EQ(b.digest, ref.digest1);
}

TEST(RingPacer, RepeatedSerialRunsAreBitIdentical)
{
    PingResult a = runPingPongSerial(25, 3000);
    PingResult b = runPingPongSerial(25, 3000);
    EXPECT_EQ(a.cycles0, b.cycles0);
    EXPECT_EQ(a.cycles1, b.cycles1);
    EXPECT_EQ(a.digest0, b.digest0);
    EXPECT_EQ(a.digest1, b.digest1);
}

TEST(RingPacer, AttachedEndpointBlocksSnapshotBothSides)
{
    // In-flight messages live outside the machines: snapshotting either
    // endpoint's machine must fatal with a ring diagnostic, never drop
    // messages silently.
    RingChannel ch("snap", 1000);
    ArmMachine ma(smallConfig());
    ArmMachine mb(smallConfig());
    RingPacer pa(ma, "a");
    RingPacer pb(mb, "b");
    pa.attach(ch.end(0));
    pb.attach(ch.end(1));
    try {
        ma.takeSnapshot();
        FAIL() << "snapshot of a ring-attached machine must fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("snap"), std::string::npos)
            << "diagnostic must name the ring: " << e.what();
    }
    EXPECT_THROW(mb.takeSnapshot(), FatalError);
}

TEST(RingPacer, PeerTerminatingMidWaitUnblocksWithError)
{
    // Machine A parks waiting for a message that will never come; its
    // peer aborts (e.g. the peer's job failed). A's next step must fatal
    // with the peer's reason — not hang, not silently complete.
    RingChannel ch("err", 2000);
    auto a = std::make_unique<PingMachine>(ch.end(0), true, 3);
    // Step A until it blocks on the (never-publishing) peer.
    while (a->step() == Fleet::StepOutcome::Done)
        FAIL() << "initiator cannot finish without a peer";
    ch.abort(1, "peer job crashed");
    try {
        a->step();
        FAIL() << "step after peer abort must fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("terminated abnormally"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RingPacer, PacerDestructionAbortsItsEndpoints)
{
    // Destroying a pacer mid-run (job teardown) must unblock the peer
    // with an error on its next send/step.
    RingChannel ch("dtor", 2000);
    {
        ArmMachine mb(smallConfig());
        RingPacer pb(mb, "b");
        pb.attach(ch.end(1));
        // pb destroyed before its machine ran to completion.
    }
    RingChannel::PeerView v = ch.peerView(0);
    EXPECT_TRUE(v.aborted);
    EXPECT_NE(v.abortReason.find("destroyed"), std::string::npos);
    EXPECT_THROW(ch.end(0).send(0, bytes({1})), FatalError);
}

TEST(RingPacer, RendezvousDeadlockIsDetected)
{
    // A waits forever; B finishes without ever sending. Once B closes
    // with nothing in flight, no future window can feed A: that's a
    // deadlock, and it must be reported, not spun on.
    RingChannel ch("dead", 2000);
    ArmMachine ma(smallConfig());
    RingPacer pa(ma, "a");
    pa.attach(ch.end(0));
    bool never = false;
    ma.cpu(0).setEntry(
        [&] { ma.cpu(0).waitUntil([&] { return never; }); });

    ArmMachine mb(smallConfig());
    RingPacer pb(mb, "b");
    pb.attach(ch.end(1));
    mb.cpu(0).setEntry([&] { mb.cpu(0).compute(100); });

    EXPECT_EQ(pb.step(), RingPacer::Step::Done); // B finishes, closes
    try {
        while (pa.step() == RingPacer::Step::Blocked) {
        }
        FAIL() << "A can neither finish nor block forever";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("rendezvous deadlock"),
                  std::string::npos)
            << e.what();
    }
    // The deadlock abort must also poison the channel for the peer side.
    EXPECT_TRUE(ch.peerView(1).aborted);
}

TEST(RingPacer, AttachAfterFirstStepIsRejected)
{
    RingChannel ch1("one", 1000);
    RingChannel ch2("two", 1000);
    ArmMachine ma(smallConfig());
    RingPacer pa(ma, "a");
    pa.attach(ch1.end(0));
    ma.cpu(0).setEntry([&] { ma.cpu(0).compute(10); });
    pa.step();
    EXPECT_THROW(pa.attach(ch2.end(0)), FatalError);
}

} // namespace
} // namespace kvmarm