/**
 * @file
 * One test per paper claim (workload/claims.hh): Calibration.<id> or
 * PaperClaims.<id> requires the computed verdict to equal the recorded one.
 */

#include <gtest/gtest.h>

#include <map>

#include "workload/claims.hh"

namespace kvmarm::wl {
namespace {

struct ClaimTest : testing::Test
{
    explicit ClaimTest(const Claim &c) : claim(c) {}

    void
    TestBody() override
    {
        // Each figure runs once per process, for the first claim reading it.
        static std::map<Figure, FigureResults> results;
        if (!results.contains(claim.figure))
            results.emplace(claim.figure, runFigure(claim.figure));
        EXPECT_EQ(claim.holds(results.at(claim.figure)),
                  claim.recorded == Verdict::Holds)
            << claim.statement;
    }

    const Claim &claim;
};

const bool kRegistered = [] {
    for (const Claim &c : claims())
        testing::RegisterTest(
            c.kind == ClaimKind::Calibration ? "Calibration" : "PaperClaims",
            c.id, nullptr, nullptr, __FILE__, __LINE__,
            [&c]() -> testing::Test * { return new ClaimTest(c); });
    return true;
}();

} // namespace
} // namespace kvmarm::wl
