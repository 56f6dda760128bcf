/**
 * @file
 * SysPort adapter tests: the miniature ARM Linux's real demand paging,
 * page-cache recycling, protection-fault cycle and IRQ accounting, plus
 * the x86 port's trap-free sched_clock and shootdown handshake.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/logging.hh"
#include "workload/arm_port.hh"
#include "workload/harness.hh"
#include "workload/x86_port.hh"

namespace kvmarm::wl {
namespace {

using arm::ArmMachine;

class ArmPortTest : public ::testing::Test
{
  protected:
    ArmPortTest()
        : machine(ArmMachine::Config{.numCpus = 1,
                                     .ramSize = 512 * kMiB,
                                     .hwVgic = true,
                                     .hwVtimers = true,
                                     .clockHz = 1.7e9,
                                     .cost = {}})
    {
        image.ramSize = 128 * kMiB;
    }

    void
    run(const std::function<void(ArmLinuxPort &)> &body)
    {
        ArmLinuxPort port(machine.cpu(0), image, 0);
        machine.cpu(0).setEntry([&] {
            port.boot();
            body(port);
        });
        machine.run();
    }

    ArmMachine machine;
    ArmOsImage image;
};

TEST_F(ArmPortTest, DemandFaultsUseRealPageTables)
{
    run([&](ArmLinuxPort &port) {
        auto &cpu = port.cpu();
        std::uint64_t faults_before =
            cpu.stats().counterValue("fault.stage1");
        for (int i = 0; i < 10; ++i)
            port.demandFault();
        EXPECT_EQ(cpu.stats().counterValue("fault.stage1"),
                  faults_before + 10);
    });
}

TEST_F(ArmPortTest, PageCacheRecyclesBackingFrames)
{
    run([&](ArmLinuxPort &port) {
        // Fill the pool, then go steady-state: the allocator must not be
        // consumed further (pages recycle).
        for (unsigned i = 0; i < 64; ++i)
            port.demandFault();
        Addr free_marker = image.nextFreePage;
        for (unsigned i = 0; i < 32; ++i)
            port.demandFault();
        EXPECT_EQ(image.nextFreePage, free_marker);
    });
}

TEST_F(ArmPortTest, ProtFaultTakesRealPermissionFault)
{
    run([&](ArmLinuxPort &port) {
        auto &cpu = port.cpu();
        std::uint64_t before = cpu.stats().counterValue("fault.stage1");
        port.protFault();
        port.protFault();
        EXPECT_EQ(cpu.stats().counterValue("fault.stage1"), before + 2);
    });
}

TEST_F(ArmPortTest, TimerAndIdleRoundTrip)
{
    run([&](ArmLinuxPort &port) {
        EXPECT_EQ(port.timerIrqsReceived(), 0u);
        port.timerProgram(30000);
        port.idle();
        EXPECT_EQ(port.timerIrqsReceived(), 1u);
        // sched_clock is monotonic and trap-free here.
        std::uint64_t a = port.schedClock();
        std::uint64_t b = port.schedClock();
        EXPECT_GE(b, a);
    });
}

TEST_F(ArmPortTest, SyscallEdgeEntersUserMode)
{
    run([&](ArmLinuxPort &port) {
        Cycles t0 = port.now();
        port.syscallEdge();
        EXPECT_GT(port.now(), t0);
        EXPECT_EQ(port.cpu().mode(), arm::Mode::Svc);
    });
}

TEST(X86PortTest, SchedClockIsRdtscAndShootdownHandshakes)
{
    x86::X86Machine machine(x86::X86Machine::Config{
        .numCpus = 2, .ramSize = 128 * kMiB,
        .platform = x86::X86Platform::Laptop});
    X86OsImage image;
    image.ramSize = 64 * kMiB;
    X86LinuxPort p0(machine.cpu(0), image, 0);
    X86LinuxPort p1(machine.cpu(1), image, 1);
    p0.peer = &p1;
    p1.peer = &p0;
    bool done = false;

    machine.cpu(0).setEntry([&] {
        p0.boot();
        std::uint64_t a = p0.schedClock();
        std::uint64_t b = p0.schedClock();
        EXPECT_GE(b, a);
        // Shootdown waits for the peer's ack.
        std::uint64_t acks = p1.shootdownAcks;
        p0.tlbShootdown(true);
        EXPECT_EQ(p1.shootdownAcks, acks + 1);
        done = true;
    });
    machine.cpu(1).setEntry([&] {
        p1.boot();
        while (!done) {
            p1.timerProgram(200000);
            p1.idle();
        }
    });
    machine.run();
    EXPECT_TRUE(done);
}

TEST(X86PortTest, ShootdownToACpuWhoseBodyReturnedIsFatal)
{
    // CPU1's body returns at once, and CPU0 shoots down later: no ack can
    // come, so the wait must end in a diagnosis instead of spinning. (Its
    // ctest TIMEOUT is short: a spinning wait fails it quickly.)
    Experiment exp;
    exp.platform = Platform::X86Laptop;
    exp.numCpus = 2;
    exp.side = [](SysPort &) {};
    exp.work = [](SysPort &port) {
        port.kernelCompute(1000000);
        port.tlbShootdown(true);
        return port.now();
    };
    for (bool virt : {false, true}) {
        SCOPED_TRACE(virt ? "virt" : "native");
        try {
            virt ? runVirt(exp) : runNative(exp);
            ADD_FAILURE() << "the shootdown returned";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("cpu0"), std::string::npos) << msg;
            EXPECT_NE(msg.find("cpu1"), std::string::npos) << msg;
            EXPECT_NE(msg.find("0xfb"), std::string::npos) << msg;
        }
    }
}

TEST(X86PortTest, UpShootdownSkipsIpi)
{
    x86::X86Machine machine(x86::X86Machine::Config{
        .numCpus = 1, .ramSize = 64 * kMiB,
        .platform = x86::X86Platform::Laptop});
    X86OsImage image;
    X86LinuxPort p0(machine.cpu(0), image, 0);
    machine.cpu(0).setEntry([&] {
        p0.boot();
        Cycles t0 = p0.now();
        p0.tlbShootdown(false); // local flush only
        EXPECT_LT(p0.now() - t0, 1000u);
    });
    machine.run();
}

} // namespace
} // namespace kvmarm::wl
