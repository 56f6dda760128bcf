/** @file EventQueue unit tests. */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "arm/machine.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace kvmarm {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.nextEventTime(), 10u);
    EXPECT_EQ(q.runDue(25), 2u);
    EXPECT_EQ(q.runDue(100), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoStableAtSameTime)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runDue(5);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    auto id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // double cancel fails
    EXPECT_EQ(q.runDue(100), 0u);
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextEventTimeSkipsCancelled)
{
    EventQueue q;
    auto id = q.schedule(5, [] {});
    q.schedule(20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.nextEventTime(), 20u);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        ++fired;
        q.schedule(10, [&] { ++fired; }); // due immediately
    });
    EXPECT_EQ(q.runDue(10), 2u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastEventsRunOnNextDrain)
{
    EventQueue q;
    bool ran = false;
    q.schedule(5, [&] { ran = true; });
    EXPECT_EQ(q.runDue(1000), 1u);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, OnScheduleHookFires)
{
    EventQueue q;
    Cycles seen = 0;
    q.onSchedule = [&](Cycles when) { seen = when; };
    q.schedule(42, [] {});
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, OnScheduleHookSeesEverySchedule)
{
    // The machine scheduler's prompt-wake guarantee rests on this hook
    // reporting every schedule with its exact time — including times that
    // are earlier than events already queued.
    EventQueue q;
    std::vector<Cycles> seen;
    q.onSchedule = [&](Cycles when) { seen.push_back(when); };
    q.schedule(500, [] {});
    q.schedule(300, [] {});
    q.schedule(400, [] {});
    EXPECT_EQ(seen, (std::vector<Cycles>{500, 300, 400}));
}

TEST(EventQueue, OnScheduleHookNotInvokedByCancelOrRun)
{
    EventQueue q;
    unsigned hooks = 0;
    q.onSchedule = [&](Cycles) { ++hooks; };
    auto id = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(hooks, 2u);
    q.cancel(id);
    q.runDue(100);
    EXPECT_EQ(hooks, 2u); // cancel and runDue are not schedules
}

TEST(EventQueue, OnScheduleHookFiresForEventScheduledByEvent)
{
    // A callback scheduling a follow-up (timer re-arm, IPI chain) must
    // still announce it: the owning CPU may be mid-drain while another
    // CPU's yield threshold depends on hearing about the new event.
    EventQueue q;
    std::vector<Cycles> seen;
    q.onSchedule = [&](Cycles when) { seen.push_back(when); };
    q.schedule(10, [&] { q.schedule(25, [] {}); });
    q.runDue(10);
    EXPECT_EQ(seen, (std::vector<Cycles>{10, 25}));
    EXPECT_EQ(q.nextEventTime(), 25u);
}

TEST(EventQueuePool, SteadyStateSchedulingNeverTouchesTheHeap)
{
    // The free list must absorb all schedule/run churn: heap allocations
    // are bounded by the peak number of simultaneously pending events, not
    // by the total number of events ever scheduled.
    EventQueue q;
    for (unsigned round = 0; round < 200; ++round) {
        for (unsigned i = 0; i < 4; ++i)
            q.schedule(Cycles(round) * 10 + i, [] {});
        q.runDue(Cycles(round) * 10 + 9);
    }
    EXPECT_EQ(q.heapAllocs(), 4u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueuePool, CancelledEventsAreRecycled)
{
    EventQueue q;
    for (unsigned round = 0; round < 50; ++round) {
        auto id = q.schedule(1000, [] {});
        q.cancel(id);
        q.runDue(0); // pops the tombstone and recycles it
    }
    EXPECT_EQ(q.heapAllocs(), 1u);
}

TEST(EventQueuePool, CallbackRescheduleReusesTheFiredEventStruct)
{
    // Timer re-arm is the hot pooling case: the fired event is recycled
    // before its callback runs, so the re-arm schedule() reuses it.
    EventQueue q;
    unsigned fired = 0;
    std::function<void()> rearm = [&] {
        if (++fired < 10)
            q.schedule(Cycles(fired) * 10, rearm);
    };
    q.schedule(0, rearm);
    for (Cycles t = 0; t <= 100; t += 10)
        q.runDue(t);
    EXPECT_EQ(fired, 10u);
    EXPECT_EQ(q.heapAllocs(), 1u);
}

TEST(EventQueueSnapshot, RestoreRecreatesEventsWithExactOrderAndIds)
{
    EventQueue q;
    auto late = q.schedule(20, [] {});
    auto early = q.schedule(10, [] {});
    auto kick = q.schedule(10, [] {}, EventQueue::Kind::Kick);
    auto dead = q.schedule(15, [] {});
    q.cancel(dead);
    (void)kick;

    SnapshotWriter w;
    q.visit(w);
    SnapshotRecord rec = w.finish("events");

    EventQueue r;
    SnapshotReader rd(rec);
    r.visit(rd);
    EXPECT_TRUE(rd.done()) << "restore left unread bytes";
    EXPECT_EQ(r.size(), 3u); // cancelled event was not saved
    EXPECT_EQ(r.nextEventTime(), 10u);

    std::vector<int> order;
    r.claim(early, [&] { order.push_back(1); });
    r.claim(late, [&] { order.push_back(2); });
    r.verifyAllClaimed(); // the Kick event rehydrated itself
    EXPECT_EQ(r.runDue(100), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));

    // The id counter was restored too: new events must never collide with
    // ids that components hold across the snapshot.
    EXPECT_GT(r.schedule(30, [] {}), dead);
}

TEST(EventQueueSnapshot, RestoreDropsWhatWasPendingBefore)
{
    EventQueue q;
    q.schedule(10, [] {});
    SnapshotWriter w;
    q.visit(w);
    SnapshotRecord rec = w.finish("events");

    EventQueue r;
    bool stale_ran = false;
    r.schedule(5, [&] { stale_ran = true; });
    SnapshotReader rd(rec);
    r.visit(rd);
    r.claim(1, [] {}); // the one saved event (first id ever issued)
    EXPECT_EQ(r.size(), 1u);
    r.runDue(100);
    EXPECT_FALSE(stale_ran);
}

TEST(EventQueueSnapshot, UnclaimedGenericEventIsFatal)
{
    EventQueue q;
    q.schedule(10, [] {});
    SnapshotWriter w;
    q.visit(w);
    SnapshotRecord rec = w.finish("events");

    EventQueue r;
    SnapshotReader rd(rec);
    r.visit(rd);
    EXPECT_THROW(r.verifyAllClaimed(), FatalError);
}

TEST(EventQueueSnapshot, BogusClaimsAreFatal)
{
    EventQueue q;
    auto id = q.schedule(10, [] {});
    auto kick = q.schedule(20, nullptr, EventQueue::Kind::Kick);
    SnapshotWriter w;
    q.visit(w);
    SnapshotRecord rec = w.finish("events");

    EventQueue r;
    SnapshotReader rd(rec);
    r.visit(rd);
    EXPECT_THROW(r.claim(id + 1000, [] {}), FatalError); // unknown id
    r.claim(id, [] {});
    EXPECT_THROW(r.claim(id, [] {}), FatalError); // double claim
    EXPECT_THROW(r.claim(kick, [] {}), FatalError); // kicks take none
}

TEST(EventQueueKicks, SameCycleKicksCoalesce)
{
    // A storm of kicks at one cycle (e.g. every ring doorbell in a burst
    // waking the same blocked CPU) must cost one pending event, not N.
    EventQueue q;
    auto id0 = q.schedule(100, [] {}, EventQueue::Kind::Kick);
    auto id1 = q.schedule(100, [] {}, EventQueue::Kind::Kick);
    auto id2 = q.schedule(100, [] {}, EventQueue::Kind::Kick);
    EXPECT_EQ(id1, id0); // the live kick's id is returned
    EXPECT_EQ(id2, id0);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.kicksCoalesced(), 2u);
}

TEST(EventQueueKicks, DistinctCyclesAndKindsDoNotCoalesce)
{
    EventQueue q;
    q.schedule(100, [] {}, EventQueue::Kind::Kick);
    q.schedule(200, [] {}, EventQueue::Kind::Kick); // different cycle
    q.schedule(100, [] {});                         // Generic at same cycle
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.kicksCoalesced(), 0u);
}

TEST(EventQueueKicks, CoalescedKickStillFiresOnSchedule)
{
    // The machine scheduler's prompt-wake guarantee rests on onSchedule
    // firing for EVERY kick — eliding the hook for a coalesced kick would
    // let a running CPU keep a stale yield threshold and change
    // interleavings (breaking bit-identical sim_cycles).
    EventQueue q;
    std::vector<Cycles> seen;
    q.onSchedule = [&](Cycles when) { seen.push_back(when); };
    q.schedule(100, [] {}, EventQueue::Kind::Kick);
    q.schedule(100, [] {}, EventQueue::Kind::Kick);
    q.schedule(100, [] {}, EventQueue::Kind::Kick);
    EXPECT_EQ(seen, (std::vector<Cycles>{100, 100, 100}));
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueKicks, KickMayCoalesceAgainAfterRunning)
{
    EventQueue q;
    q.schedule(100, [] {}, EventQueue::Kind::Kick);
    q.schedule(100, [] {}, EventQueue::Kind::Kick);
    EXPECT_EQ(q.runDue(150), 1u);
    // The kick ran; a new kick at the same cycle is a fresh event (past
    // events run on the next drain, so this is still well-formed).
    auto id = q.schedule(100, [] {}, EventQueue::Kind::Kick);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.kicksCoalesced(), 1u);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueKicks, CancelledKickNoLongerCoalesces)
{
    EventQueue q;
    auto id = q.schedule(100, [] {}, EventQueue::Kind::Kick);
    EXPECT_TRUE(q.cancel(id));
    auto id2 = q.schedule(100, [] {}, EventQueue::Kind::Kick);
    EXPECT_NE(id2, id);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.kicksCoalesced(), 0u);
}

TEST(EventQueueKicks, CpuKickAtCoalesces)
{
    // CpuBase::kickAt goes through the same path: a blocked CPU kicked N
    // times for the same wake cycle holds one pending kick event.
    arm::ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 32 * kMiB;
    arm::ArmMachine machine(mc);
    CpuBase &cpu = machine.cpu(0);
    std::size_t before = cpu.events().size();
    cpu.kickAt(5000);
    cpu.kickAt(5000);
    cpu.kickAt(5000);
    EXPECT_EQ(cpu.events().size(), before + 1);
    EXPECT_EQ(cpu.events().kicksCoalesced(), 2u);
    bool woke = false;
    machine.cpu(0).setEntry([&] {
        cpu.waitUntil([&] { return cpu.now() >= 5000; });
        woke = true;
    });
    machine.run();
    EXPECT_TRUE(woke);
    EXPECT_GE(cpu.now(), 5000u);
}

TEST(EventQueueKicks, RestoredKickRunsUnclaimedAtItsTime)
{
    // Kicks are scheduled without a callback and restored the same way:
    // a clone's queue holds the kick with nothing to claim it, the restore
    // must accept that, and the kick still drains at its time, exactly as
    // it does on the origin.
    arm::ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 32 * kMiB;
    arm::ArmMachine origin(mc);
    origin.cpu(0).kickAt(5000);
    auto snap = origin.takeSnapshot();

    arm::ArmMachine clone(mc);
    clone.restoreSnapshot(*snap); // runs verifyAllClaimed
    CpuBase &cpu = clone.cpu(0);
    ASSERT_EQ(cpu.events().size(), 1u);
    ASSERT_EQ(cpu.events().nextEventTime(), 5000u);
    cpu.advanceTo(4999);
    EXPECT_EQ(cpu.events().size(), 1u);
    cpu.advanceTo(5000);
    EXPECT_TRUE(cpu.events().empty());
}

} // namespace
} // namespace kvmarm
