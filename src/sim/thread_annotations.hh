/**
 * @file
 * Clang thread-safety annotations (DESIGN.md §4.8): macros wrapping the
 * `-Wthread-safety` attribute family, plus an annotated mutex and scoped
 * lock. libstdc++'s std::mutex carries no capability attributes, so the
 * analysis only sees locking done through these wrappers; the shared-
 * ownership surfaces (invariant-engine registry, logging stream
 * writer, Fleet deques) use them so the clang CI leg
 * (-Werror=thread-safety-analysis) proves every access to guarded state
 * happens under the right lock. Under GCC every macro expands to nothing
 * and Mutex degrades to a plain std::mutex wrapper.
 */

#ifndef KVMARM_SIM_THREAD_ANNOTATIONS_HH
#define KVMARM_SIM_THREAD_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
#define KVMARM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define KVMARM_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability. */
#define KVMARM_CAPABILITY(x) KVMARM_THREAD_ANNOTATION(capability(x))
/** Marks an RAII type that acquires in its ctor and releases in its dtor. */
#define KVMARM_SCOPED_CAPABILITY KVMARM_THREAD_ANNOTATION(scoped_lockable)
/** Data member readable/writable only while holding @p x. */
#define KVMARM_GUARDED_BY(x) KVMARM_THREAD_ANNOTATION(guarded_by(x))
/** Pointee guarded by @p x (the pointer itself is not). */
#define KVMARM_PT_GUARDED_BY(x) KVMARM_THREAD_ANNOTATION(pt_guarded_by(x))
/** Caller must hold the capability on entry (and still holds it on exit). */
#define KVMARM_REQUIRES(...) \
    KVMARM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/** Function acquires the capability (held on exit, not on entry). */
#define KVMARM_ACQUIRE(...) \
    KVMARM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/** Function releases the capability. */
#define KVMARM_RELEASE(...) \
    KVMARM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/** Caller must NOT hold the capability (deadlock prevention). */
#define KVMARM_EXCLUDES(...) \
    KVMARM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/** Escape hatch for quiesced-only or conditionally-locked code; every use
 *  must carry a comment saying why the access is safe. */
#define KVMARM_NO_THREAD_SAFETY_ANALYSIS \
    KVMARM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace kvmarm {

/** std::mutex with the capability attribute the analysis needs. */
class KVMARM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() KVMARM_ACQUIRE() { m_.lock(); }
    void unlock() KVMARM_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/** std::lock_guard over Mutex, visible to the analysis. */
class KVMARM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) KVMARM_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~MutexLock() KVMARM_RELEASE() { m_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &m_;
};

/**
 * std::unique_lock over Mutex for condition-variable waits, visible to
 * the analysis. The analysis treats the capability as held for the whole
 * scope; a condition_variable_any wait on native() releases and reacquires
 * it atomically with the sleep, so guarded accesses around (and inside the
 * predicate of) the wait are in fact protected.
 */
class KVMARM_SCOPED_CAPABILITY CondLock
{
  public:
    explicit CondLock(Mutex &m) KVMARM_ACQUIRE(m) : lock_(m) {}
    ~CondLock() KVMARM_RELEASE() {}

    CondLock(const CondLock &) = delete;
    CondLock &operator=(const CondLock &) = delete;

    /** The underlying lock object, for condition_variable_any::wait. */
    std::unique_lock<Mutex> &native() { return lock_; }

  private:
    std::unique_lock<Mutex> lock_;
};

} // namespace kvmarm

#endif // KVMARM_SIM_THREAD_ANNOTATIONS_HH
