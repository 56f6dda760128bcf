/**
 * @file
 * Workload layer tests: the miniature Linux boots identically native and
 * as a guest, lmbench operations are deterministic, overheads behave
 * (virt >= native within tolerance), and the harness' four stacks run.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "workload/apps.hh"
#include "workload/claims.hh"
#include "workload/harness.hh"
#include "workload/linux_model.hh"

namespace kvmarm::wl {
namespace {

/** Every platform must reject @p exp in both runs, before any machine is
 *  built: neither the prepare hook nor the work function runs. */
void
expectDiagnosed(Experiment exp)
{
    for (Platform p : kPlatforms) {
        SCOPED_TRACE(platformName(p));
        unsigned prepared = 0;
        exp.platform = p;
        exp.prepare = [&prepared] { ++prepared; };
        EXPECT_THROW(runNative(exp), FatalError);
        EXPECT_THROW(runVirt(exp), FatalError);
        EXPECT_THROW(overhead(exp), FatalError);
        EXPECT_EQ(prepared, 0u);
    }
}

Cycles
idleWork(SysPort &port)
{
    return port.now();
}

TEST(Experiment, MissingWorkIsDiagnosed)
{
    Experiment exp;
    expectDiagnosed(exp);
    exp.numCpus = 2;
    exp.side = [](SysPort &) {};
    expectDiagnosed(exp);
}

TEST(Experiment, CpuCountOtherThanOneOrTwoIsDiagnosed)
{
    for (unsigned n : {0u, 3u, 8u}) {
        SCOPED_TRACE(n);
        Experiment exp;
        exp.numCpus = n;
        exp.work = idleWork;
        exp.side = [](SysPort &) {};
        expectDiagnosed(exp);
    }
}

TEST(Experiment, SmpRunWithoutSideIsDiagnosed)
{
    Experiment exp;
    exp.numCpus = 2;
    exp.work = idleWork;
    expectDiagnosed(exp);
}

TEST(Workload, NullSyscallNeverTraps)
{
    // Null syscalls stay inside the guest: zero overhead on every
    // platform with hardware support.
    for (Platform p : {Platform::ArmVgic, Platform::X86Laptop}) {
        Experiment exp;
        exp.platform = p;
        exp.numCpus = 1;
        exp.work = [](SysPort &port) -> Cycles {
            Cycles t0 = port.now();
            LmbenchOps ops(port);
            for (int i = 0; i < 100; ++i)
                ops.nullSyscall();
            return port.now() - t0;
        };
        double oh = overhead(exp);
        EXPECT_NEAR(oh, 1.0, 0.01) << platformName(p);
    }
}

TEST(Workload, DeterministicAcrossRuns)
{
    // The whole simulation is deterministic: identical experiments give
    // identical cycle counts.
    Experiment exp;
    exp.platform = Platform::ArmVgic;
    exp.numCpus = 1;
    exp.work = [](SysPort &port) -> Cycles {
        LmbenchOps ops(port);
        return ops.run(LmWorkload::Pipe, 40);
    };
    RunMetrics a = runVirt(exp);
    RunMetrics b = runVirt(exp);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(runNative(exp).elapsed, runNative(exp).elapsed);
}

TEST(Workload, VirtualizationNeverSpeedsUpLmbench)
{
    for (const auto &[w, overheads] : runFigure(Figure::Fig3).lmbenchUp)
        for (double oh : overheads)
            EXPECT_GE(oh, 0.999) << lmWorkloadName(w);
}

TEST(Workload, AppOutcomesAreSane)
{
    AppOutcome out = runApp(App::Untar, Platform::ArmVgic, false);
    EXPECT_GT(out.native.elapsed, 0u);
    EXPECT_GE(out.overhead, 0.98);
    EXPECT_LT(out.overhead, 1.6);
    EXPECT_GT(out.energyOverhead, 0.9);
    // untar is I/O bound: low utilization (paper §5.2).
    EXPECT_LT(out.native.cpuUtil, 0.4);
    EXPECT_FALSE(isCpuBound(App::Untar));
    EXPECT_TRUE(isCpuBound(App::KernelCompile));
}

TEST(Workload, SmpPingPongCompletes)
{
    auto ch = std::make_shared<SmpChannel>();
    Experiment exp;
    exp.platform = Platform::ArmVgic;
    exp.numCpus = 2;
    exp.prepare = [ch] {
        *ch = SmpChannel{};
        ch->rounds = 60;
    };
    exp.work = [ch](SysPort &port) -> Cycles {
        Cycles t0 = port.now();
        pipeSmpSide(port, *ch, true, true);
        return port.now() - t0;
    };
    exp.side = [ch](SysPort &port) { pipeSmpSide(port, *ch, false, true); };

    RunMetrics native = runNative(exp);
    EXPECT_EQ(ch->token, 60u);
    RunMetrics virt = runVirt(exp);
    EXPECT_EQ(ch->token, 60u);
    EXPECT_GT(virt.elapsed, native.elapsed);
}

TEST(Workload, AllAppsRunOnAllPlatformsUp)
{
    // Broad integration sweep: every app on every platform, UP.
    for (const auto &[app, outcomes] : runFigure(Figure::Fig5).appsUp)
        for (const AppOutcome &out : outcomes) {
            EXPECT_GT(out.overhead, 0.97) << appName(app);
            EXPECT_LT(out.overhead, 4.0) << appName(app);
        }
}

} // namespace
} // namespace kvmarm::wl
