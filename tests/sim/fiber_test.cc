/** @file Fiber unit tests. */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/fiber.hh"

namespace kvmarm {
namespace {

TEST(Fiber, RunsToCompletion)
{
    int x = 0;
    Fiber f([&] { x = 42; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber f([&] {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
        Fiber::yield();
        trace.push_back(5);
    });
    f.resume();
    trace.push_back(2);
    f.resume();
    trace.push_back(4);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, TwoFibersInterleave)
{
    std::vector<int> trace;
    Fiber a([&] {
        trace.push_back(10);
        Fiber::yield();
        trace.push_back(12);
    });
    Fiber b([&] {
        trace.push_back(20);
        Fiber::yield();
        trace.push_back(22);
    });
    a.resume();
    b.resume();
    a.resume();
    b.resume();
    EXPECT_EQ(trace, (std::vector<int>{10, 20, 12, 22}));
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(b.finished());
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, DeepStackSurvives)
{
    // Simulated software nests deeply (guest op -> trap -> host -> QEMU).
    std::function<int(int)> recurse = [&](int n) -> int {
        volatile char pad[512];
        pad[0] = static_cast<char>(n);
        pad[511] = pad[0];
        if (n == 0)
            return 0;
        return recurse(n - 1) + 1;
    };
    int result = 0;
    Fiber f([&] { result = recurse(400); });
    f.resume();
    EXPECT_EQ(result, 400);
}

/** Recurse @p depth levels, yielding at every level on the way down and
 *  again on the way up; locals of each kind must survive every switch. */
int
yieldingRecurse(int depth, double scale, const int *anchor)
{
    int i = depth * 7 + 3;
    double d = scale * depth + 0.25;
    const int *p = anchor + depth;
    Fiber::yield();
    int below = depth == 0 ? 0 : yieldingRecurse(depth - 1, scale, anchor);
    Fiber::yield();
    bool intact = i == depth * 7 + 3 && d == scale * depth + 0.25 &&
                  p == anchor + depth;
    return below + (intact ? 1 : 0);
}

TEST(Fiber, LocalsSurviveYieldAtEveryLevelOfDeepRecursion)
{
    constexpr int kDepth = 400;
    std::vector<int> anchor(kDepth + 1);
    int intact = -1;
    Fiber f([&] { intact = yieldingRecurse(kDepth, 1.5, anchor.data()); });
    int resumes = 0;
    while (!f.finished()) {
        f.resume();
        ++resumes;
    }
    EXPECT_EQ(intact, kDepth + 1);
    // Two yields per level plus the final run to completion.
    EXPECT_EQ(resumes, 2 * (kDepth + 1) + 1);
}

/** FNV-1a step over one 64-bit trace word. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Fiber, PingPongMillionSwitchesKeepsTrace)
{
    // Two fibers alternate through one shared trace; every resume and
    // every yield is one switch, so 250,000 rounds of (resume a, yield,
    // resume b, yield) make 1,000,000 switches.
    constexpr std::uint64_t kRounds = 250000;
    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto player = [&hash](std::uint64_t who) {
        for (std::uint64_t n = 0; n < kRounds; ++n) {
            hash = mix(hash, (who << 32) | n);
            Fiber::yield();
        }
    };
    Fiber a([&] { player(1); });
    Fiber b([&] { player(2); });
    std::uint64_t switches = 0;
    while (!a.finished() || !b.finished()) {
        a.resume();
        b.resume();
        switches += 4;
    }
    // The last pass only lets both fibers return.
    EXPECT_EQ(switches - 4, 4 * kRounds);

    std::uint64_t expect = 0xcbf29ce484222325ull;
    for (std::uint64_t n = 0; n < kRounds; ++n) {
        expect = mix(expect, (1ull << 32) | n);
        expect = mix(expect, (2ull << 32) | n);
    }
    EXPECT_EQ(hash, expect);
}

TEST(Fiber, DestroyedWhileSuspendedReleasesStack)
{
    // What MachineBase::requestStop leaves behind: a fiber that never
    // finishes. Destroying it must release its entry function and unmap
    // its stack.
    auto token = std::make_shared<int>(0);
    volatile char *stackByte = nullptr;
    {
        Fiber f([&stackByte, token] {
            volatile char local[4096] = {};
            local[0] = 1;
            stackByte = local;
            Fiber::yield();
            ADD_FAILURE() << "an abandoned fiber was resumed";
        });
        f.resume();
        EXPECT_FALSE(f.finished());
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    void *stackPage = reinterpret_cast<void *>(
        reinterpret_cast<std::uintptr_t>(stackByte) & ~(page - 1));
    unsigned char resident = 0;
    EXPECT_EQ(mincore(stackPage, page, &resident), -1);
    EXPECT_EQ(errno, ENOMEM) << "the fiber stack is still mapped";
}

/** Out of reach of any 1 MiB stack; volatile so the recursion below
 *  can be neither bounded nor folded at compile time. */
volatile int overflowLimit = 1 << 30;

/** Recurse until stopped by a fault; never returns normally. Not
 *  inlined into itself: each frame must stay smaller than the one guard
 *  page, or the stack pointer could step over it. */
[[gnu::noinline]] int
overflow(int n)
{
    volatile char pad[1024];
    pad[0] = static_cast<char>(n);
    if (n == overflowLimit)
        return pad[0];
    return overflow(n + 1) + pad[0];
}

/** Overflow inside a fiber; a SIGSEGV handler on its own stack reports
 *  whether the faulting address is the guard page under the stack. */
void
overflowFiberStack()
{
    static std::uintptr_t stackTop = 0; // set inside the fiber
    static std::vector<char> altStack(64 * 1024);
    stack_t ss{};
    ss.ss_sp = altStack.data();
    ss.ss_size = altStack.size();
    sigaltstack(&ss, nullptr);
    struct sigaction sa = {};
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sa.sa_sigaction = [](int, siginfo_t *info, void *) {
        // The stack is 1 MiB: the fault must be about 1 MiB below the
        // fiber's first frame, on a page that is mapped but inaccessible
        // (SEGV_ACCERR). Running off into an unmapped hole would be
        // SEGV_MAPERR; into a neighbouring mapping, no fault at all.
        auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
        std::uintptr_t guardHi = stackTop - 1024 * 1024 + 64 * 1024;
        std::uintptr_t guardLo = stackTop - 1024 * 1024 - 64 * 1024;
        static const char hit[] = "fault at the guard page\n";
        static const char miss[] = "fault elsewhere\n";
        if (info->si_code == SEGV_ACCERR && addr >= guardLo &&
            addr < guardHi)
            (void)!write(2, hit, sizeof(hit) - 1);
        else
            (void)!write(2, miss, sizeof(miss) - 1);
        _exit(3);
    };
    sigaction(SIGSEGV, &sa, nullptr);
    Fiber f([] {
        volatile char top = 0;
        stackTop = reinterpret_cast<std::uintptr_t>(&top);
        overflow(0);
    });
    f.resume();
}

TEST(FiberDeathTest, StackOverflowFaultsAtGuardPage)
{
    EXPECT_DEATH(overflowFiberStack(), "fault at the guard page");
}

} // namespace
} // namespace kvmarm
