/** @file Stats unit tests. */

#include <gtest/gtest.h>

#include <array>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

#include "arm/hsr.hh"
#include "core/vcpu.hh"
#include "kvmx86/kvm_x86.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "x86/cpu.hh"

namespace kvmarm {
namespace {

TEST(Stats, CounterIncrements)
{
    StatGroup g;
    g.inc("exit.hvc");
    g.inc("exit.hvc", 4);
    EXPECT_EQ(g.counterValue("exit.hvc"), 5u);
    // Declared but never bumped reads 0; an undeclared name is a misuse.
    EXPECT_EQ(g.counterValue("exit.wfi"), 0u);
    EXPECT_THROW(g.counterValue("missing"), FatalError);
}

TEST(Stats, ResetClearsEverything)
{
    StatGroup g;
    g.inc("mmio", 7);
    g.resetAll();
    EXPECT_EQ(g.counterValue("mmio"), 0u);
    // A reset counter stays listed, at 0.
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "mmio                                            0\n");
}

TEST(Stats, DumpContainsNames)
{
    StatGroup g;
    g.inc("trap.hvc", 3);
    std::ostringstream os;
    g.dump(os, "cpu0.");
    EXPECT_NE(os.str().find("cpu0.trap.hvc"), std::string::npos);
    EXPECT_NE(os.str().find("3"), std::string::npos);
}

/** Every declared counter, by slot. */
constexpr auto kAllStats = statFamily<kNumStats>(
    "", [](std::size_t i) { return kStatNames[i]; });

/** The dump rule the flat groups must keep: the one a
 *  std::map<std::string, std::uint64_t> gave. A counter is listed once
 *  bumped (even by 0), in name order; a reset zeroes it but keeps it. */
std::string
modelDump(const std::map<std::string, std::uint64_t> &m,
          const std::string &prefix)
{
    std::ostringstream os;
    for (const auto &[name, v] : m)
        os << std::left << std::setw(48) << (prefix + name) << v << "\n";
    return os.str();
}

std::string
dumpOf(const StatGroup &g, const std::string &prefix)
{
    std::ostringstream os;
    g.dump(os, prefix);
    return os.str();
}

/** Copy through a snapshot record, as a clone's restore does. */
void
restoreFrom(const StatGroup &origin, StatGroup &into)
{
    StatGroup copy = origin;
    SnapshotWriter w;
    w.pod(copy);
    SnapshotRecord rec = w.finish("stats");
    SnapshotReader r(rec);
    r.pod(into);
    ASSERT_TRUE(r.done());
}

TEST(Stats, SeededOperationsDumpLikeTheMapModel)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::array<StatGroup, 2> groups;
        std::array<std::map<std::string, std::uint64_t>, 2> model;
        for (int step = 0; step < 2000; ++step) {
            const std::size_t a = rng.range(2);
            const std::size_t b = 1 - a;
            const std::uint64_t op = rng.range(20);
            if (op < 16) {
                const StatId id = kAllStats[rng.range(kNumStats)];
                const std::uint64_t n =
                    rng.chance(0.25) ? 0 : rng.range(1000);
                groups[a].inc(id, n);
                model[a][std::string(id.name())] += n;
            } else if (op < 18) {
                groups[a].resetAll();
                for (auto &kv : model[a])
                    kv.second = 0;
            } else if (op < 19) {
                restoreFrom(groups[a], groups[b]);
                model[b] = model[a];
            } else {
                groups[b] = groups[a];
                model[b] = model[a];
            }
            for (std::size_t g = 0; g < 2; ++g) {
                ASSERT_EQ(dumpOf(groups[g], "g."), modelDump(model[g], "g."))
                    << "step " << step;
                for (const auto &[name, v] : model[g])
                    ASSERT_EQ(groups[g].counterValue(name), v);
            }
        }
    }
}

TEST(Stats, FamiliesMapToTheirNames)
{
    for (std::size_t i = 0; i < arm::kNumExcClasses; ++i) {
        const std::string ec =
            arm::excClassName(static_cast<arm::ExcClass>(i));
        EXPECT_EQ(arm::kTrapStats[i].name(), "trap." + ec);
        EXPECT_EQ(core::kExitStats[i].name(), "exit." + ec);
    }
    for (std::size_t i = 0; i < x86::kNumExitReasons; ++i) {
        const std::string reason =
            x86::exitReasonName(static_cast<x86::ExitReason>(i));
        EXPECT_EQ(x86::kVmexitStats[i].name(), "vmexit." + reason);
        EXPECT_EQ(kvmx86::kExitStats[i].name(), "exit." + reason);
    }
    // Each id bumps the slot its name reads back from.
    StatGroup g;
    g.inc(arm::kTrapStats[static_cast<std::size_t>(arm::ExcClass::Hvc)]);
    g.inc(kvmx86::kExitStats[static_cast<std::size_t>(
        x86::ExitReason::EptViolation)]);
    EXPECT_EQ(g.counterValue("trap.hvc"), 1u);
    EXPECT_EQ(g.counterValue("exit.ept"), 1u);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad config %d", 7), FatalError);
    try {
        fatal("value=%d", 42);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value=42"),
                  std::string::npos);
    }
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(99);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.range(17), 17u);
    }
}

} // namespace
} // namespace kvmarm
