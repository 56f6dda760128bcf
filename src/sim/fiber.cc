// A fiber switch is a _setjmp/_longjmp pair between two stacks. With
// _FORTIFY_SOURCE, glibc routes _longjmp to __longjmp_chk, which aborts on
// a jump to another stack ("longjmp causes uninitialized stack frame"), so
// this file is built without it whatever the toolchain default.
#undef _FORTIFY_SOURCE

#include "sim/fiber.hh"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <utility>

#include "sim/logging.hh"

// Neither sanitizer can see through a raw stack switch on its own.
// ThreadSanitizer would keep attributing execution to the old stack and
// report spurious races (or lose real ones); AddressSanitizer would take
// the fiber stack for part of the thread stack and, on every _longjmp,
// skip unpoisoning it ("False positive error reports may follow"). Both
// have a fiber API for exactly this kind of user-level scheduler, so every
// switch is announced: __tsan_switch_to_fiber and
// __sanitizer_start_switch_fiber right before the jump,
// __sanitizer_finish_switch_fiber right after landing.
#if defined(__SANITIZE_THREAD__)
#define KVMARM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KVMARM_TSAN_FIBERS 1
#endif
#endif
#ifndef KVMARM_TSAN_FIBERS
#define KVMARM_TSAN_FIBERS 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define KVMARM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KVMARM_ASAN_FIBERS 1
#endif
#endif
#ifndef KVMARM_ASAN_FIBERS
#define KVMARM_ASAN_FIBERS 0
#endif

#if KVMARM_TSAN_FIBERS
extern "C" {
void *__tsan_get_current_fiber(void);
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
}
#endif

#if KVMARM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void **fake_stack_save, const void *bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void *fake_stack_save,
                                     const void **bottom_old,
                                     std::size_t *size_old);
}
#endif

namespace kvmarm {

namespace {
// domlint: allow(ownership-static) — per-thread fiber context: each worker thread runs one machine, so this is machine-owned by construction
thread_local Fiber *currentFiber = nullptr;

std::size_t
pageSize()
{
    return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/** Tell TSan execution continues on @p fiber (call right before a jump). */
inline void
tsanSwitchTo([[maybe_unused]] void *fiber)
{
#if KVMARM_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#endif
}

/** Tell ASan the next jump lands on [@p bottom, +@p size); the departing
 *  stack's fake frames go to @p save (null: that stack is finished). */
inline void
asanStartSwitch([[maybe_unused]] void **save,
                [[maybe_unused]] const void *bottom,
                [[maybe_unused]] std::size_t size)
{
#if KVMARM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(save, bottom, size);
#endif
}

/** Tell ASan a jump has landed; restores this stack's fake frames and
 *  reports the stack that was left (when @p bottom is non-null). */
inline void
asanFinishSwitch([[maybe_unused]] void *save,
                 [[maybe_unused]] const void **bottom,
                 [[maybe_unused]] std::size_t *size)
{
#if KVMARM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(save, bottom, size);
#endif
}
} // namespace

Fiber::Fiber(std::function<void()> fn, std::size_t stack_size)
    : fn_(std::move(fn))
{
    // One mapping: a PROT_NONE guard page, then the stack. MAP_NORESERVE
    // leaves every page uncommitted until the fiber first touches it (and
    // then zero), so a CPU that runs shallow code costs a few pages, not
    // the whole stack.
    const std::size_t page = pageSize();
    stackSize_ = (stack_size + page - 1) / page * page;
    void *map = mmap(nullptr, stackSize_ + page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED)
        fatal("Fiber: cannot map a %zu-byte stack", stackSize_);
    if (mprotect(map, page, PROT_NONE) != 0) {
        munmap(map, stackSize_ + page);
        fatal("Fiber: cannot protect the stack guard page");
    }
    stack_ = static_cast<unsigned char *>(map) + page;
}

Fiber::~Fiber()
{
#if KVMARM_TSAN_FIBERS
    // Destruction happens from the scheduler context, never from inside
    // the fiber itself, so this is never the current TSan fiber (this
    // also covers fibers abandoned mid-run by MachineBase::requestStop).
    if (tsanFiber_)
        __tsan_destroy_fiber(tsanFiber_);
#endif
    const std::size_t page = pageSize();
    munmap(stack_ - page, stackSize_ + page);
}

Fiber *
Fiber::current()
{
    return currentFiber;
}

void
Fiber::trampoline()
{
    Fiber *self = currentFiber;
    asanFinishSwitch(nullptr, &self->asanReturnBottom_,
                     &self->asanReturnSize_);
    // Unwinding cannot cross into the resumer's stack: an exception ends
    // the fiber here and resume() rethrows it on the resumer's side. The
    // catch block is left before the jump, so only the exception_ptr
    // keeps the exception alive.
    try {
        self->fn_();
    } catch (...) {
        self->exception_ = std::current_exception();
    }
    self->finished_ = true;
    // Back to the last resumer for good, on the same path whether or not
    // the entry threw; this stack is never entered again, so ASan may
    // drop its fake frames (null save slot).
    tsanSwitchTo(self->tsanReturn_);
    asanStartSwitch(nullptr, self->asanReturnBottom_, self->asanReturnSize_);
    _longjmp(self->returnCtx_, 1);
}

// switchIn/switchOut call _setjmp themselves and stay out of line (GCC
// never inlines a setjmp caller), so no variable of resume()/yield() lives
// across the _setjmp: that is what keeps -Wclobbered quiet and the
// callers' locals exact. The sanitizer hand-over goes between _setjmp and
// _longjmp: TSan files the saved context under the departing fiber.

void
Fiber::switchIn()
{
    // The first entry's contexts live in this frame, not in a callee's:
    // the fiber's jump back returns through this frame, and ASan only
    // clears the stack redzones of a frame that is returned through.
    ucontext_t entry;
    ucontext_t unused;
    if (_setjmp(returnCtx_))
        return; // the fiber yielded or finished
    tsanSwitchTo(tsanFiber_);
    asanStartSwitch(&asanResumerFake_, stack_, stackSize_);
    if (started_)
        _longjmp(ctx_, 1);
    // The only ucontext use: a jmp_buf cannot name a fresh stack, so the
    // first entry goes through makecontext. Nothing ever swaps back to
    // `unused`; the fiber returns with _longjmp to returnCtx_.
    started_ = true;
    getcontext(&entry);
    entry.uc_stack.ss_sp = stack_;
    entry.uc_stack.ss_size = stackSize_;
    entry.uc_link = nullptr;
    makecontext(&entry, &Fiber::trampoline, 0);
    swapcontext(&unused, &entry);
    panic("Fiber: returned to a fiber's entry frame");
}

void
Fiber::switchOut()
{
    if (_setjmp(ctx_))
        return; // resumed
    tsanSwitchTo(tsanReturn_);
    asanStartSwitch(&asanFakeStack_, asanReturnBottom_, asanReturnSize_);
    _longjmp(returnCtx_, 1);
}

void
Fiber::resume()
{
    if (finished_)
        panic("Fiber::resume on finished fiber");
    if (currentFiber)
        panic("Fiber::resume from inside a fiber (no nesting)");

    currentFiber = this;
#if KVMARM_TSAN_FIBERS
    if (!tsanFiber_)
        tsanFiber_ = __tsan_create_fiber(0);
    tsanReturn_ = __tsan_get_current_fiber();
#endif
    switchIn();
    asanFinishSwitch(asanResumerFake_, nullptr, nullptr);
    currentFiber = nullptr;
    if (exception_)
        std::rethrow_exception(std::exchange(exception_, nullptr));
}

void
Fiber::yield()
{
    Fiber *self = currentFiber;
    if (!self)
        panic("Fiber::yield outside any fiber");
    self->switchOut();
    asanFinishSwitch(self->asanFakeStack_, &self->asanReturnBottom_,
                     &self->asanReturnSize_);
}

} // namespace kvmarm
