/**
 * @file
 * Cooperative fibers, one per simulated CPU.
 *
 * Simulated software — guest kernels, the hypervisor, the host kernel — runs
 * as ordinary synchronous C++ on a fiber. The machine scheduler resumes the
 * runnable CPU with the smallest cycle clock, so multicore interactions
 * (IPIs, spinning on shared memory, WFI wakeups) interleave deterministically
 * without threads.
 *
 * A fiber enters its fresh stack once through makecontext/swapcontext;
 * every later switch is a _setjmp/_longjmp pair, which saves and restores
 * registers only (no signal-mask syscall).
 */

#ifndef KVMARM_SIM_FIBER_HH
#define KVMARM_SIM_FIBER_HH

#include <setjmp.h>

#include <cstddef>
#include <exception>
#include <functional>

namespace kvmarm {

/** A single cooperative fiber with its own stack. */
class Fiber
{
  public:
    /**
     * @param fn Entry function; the fiber is finished when it returns.
     * @param stack_size Stack bytes; simulated software nests deeply
     *        (guest op -> trap -> world switch -> host -> QEMU), so the
     *        default is generous. The stack is mapped lazily (only pages
     *        the fiber touches are committed) above one inaccessible
     *        guard page, so an overflow faults instead of corrupting
     *        memory.
     */
    explicit Fiber(std::function<void()> fn,
                   std::size_t stack_size = 1024 * 1024);

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;
    ~Fiber();

    /** Switch from the caller into the fiber. Must not be called from a
     *  fiber (no nesting of resumes). An exception that escapes the entry
     *  function finishes the fiber and is rethrown here. */
    void resume();

    /** Yield from inside the currently running fiber back to its resumer. */
    static void yield();

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

    /** The fiber currently executing, or nullptr if in the scheduler. */
    static Fiber *current();

  private:
    [[noreturn]] static void trampoline();
    void switchIn();
    void switchOut();

    std::function<void()> fn_;
    unsigned char *stack_ = nullptr; ///< lowest usable byte (guard below)
    std::size_t stackSize_ = 0;
    jmp_buf ctx_;       ///< the fiber, suspended in yield()
    jmp_buf returnCtx_; ///< the resumer, suspended in resume()
    bool started_ = false;
    bool finished_ = false;
    /** What escaped the entry function, until resume() rethrows it. */
    std::exception_ptr exception_;

    /** Sanitizer fiber state (always present so the layout does not
     *  depend on the sanitizer config; only touched under ASan/TSan).
     *  Neither sanitizer can follow a raw stack switch on its own, so
     *  fiber.cc announces every switch through their fiber interfaces. */
    void *tsanFiber_ = nullptr;
    void *tsanReturn_ = nullptr;
    void *asanFakeStack_ = nullptr;   ///< the fiber's, while suspended
    void *asanResumerFake_ = nullptr; ///< the resumer's, while it runs
    const void *asanReturnBottom_ = nullptr; ///< the resumer's stack
    std::size_t asanReturnSize_ = 0;
};

} // namespace kvmarm

#endif // KVMARM_SIM_FIBER_HH
