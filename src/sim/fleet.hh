/**
 * @file
 * Fleet executor: runs many machine simulations concurrently on a pool of
 * host threads.
 *
 * Each job is one whole VM/machine run — the machine keeps its existing
 * single-threaded fiber scheduler and runs on exactly one worker thread at
 * a time, so its simulated cycle counts, stats, and event interleavings
 * are bit-identical no matter how many host threads the fleet uses. The
 * executor only decides *which* host thread runs *which* machine, never
 * how a machine executes internally.
 *
 * The fleet is a long-lived worker pool with a thread-safe submission
 * channel. submit() is legal before start() (jobs queue until workers
 * exist), while the pool runs, and — crucially — from inside a running job
 * body: a running VM may take a COW snapshot of itself (DESIGN.md §4.9)
 * and submit clone jobs mid-run, "VMs spawning VMs". drain() blocks until
 * every submitted job (including transitively spawned ones) has finished
 * and returns that epoch's results; shutdown() drains and retires the
 * workers, after which submission is a diagnosed hard error.
 *
 * Determinism does not come from arrival order — concurrent spawns race,
 * so arrival order differs run to run. Instead every submission is stamped
 * with a (submitter-id, submission-seq) key: the submitter is the
 * deterministic 64-bit id of the job that called submit() (0 for the
 * external owner thread), and the seq is that submitter's private
 * submission counter. Both are pure functions of simulated execution, so
 * the key — and everything dealt or ordered by it — is identical at any
 * worker count. Jobs are dealt to a home worker derived from the key, and
 * drain() orders results by key path (a parent's spawns sort directly
 * after the parent, in spawn order), never by completion or arrival order.
 * Per-VM sim_cycles and stat dumps therefore gate bit-identical across a
 * Fleet-free serial run and 1/2/4/8 workers (the FleetStress and
 * FleetDeterminism tests).
 *
 * Scheduling is a per-worker deque with job stealing: jobs are dealt by
 * key, a worker pops its own deque from the front, and a worker that runs
 * dry steals from the back of another worker's deque. Heterogeneous fleets
 * (a world-switch storm VM next to a compute-bound VM) therefore keep
 * every host thread busy until the global queue is empty instead of idling
 * behind a static partition.
 *
 * Communicating fleets (DESIGN.md §4.10) use *resumable* jobs: a StepFn
 * advances its machine until it must wait for a peer (e.g. a RingPacer
 * window blocked on the peer's horizon) and returns Blocked. The fleet
 * parks the job without occupying a worker; notify() — typically wired to
 * a RingChannel wake hook — re-queues it. A notify from inside a job body
 * queues the woken job at the front of the calling worker's own deque, so
 * a ring handoff usually continues on the host thread that produced it
 * (Go's runnext, Tokio's LIFO slot); an idle worker may still steal it.
 * A notify that races the step (arriving while the job runs) is latched
 * and converts the park into an immediate re-queue on the job's home
 * deque, so wakeups are never lost. At one worker thread this
 * degrades to serial round-robin between the communicating jobs, which is
 * exactly the reference schedule the determinism gates compare against.
 * While a drain is in progress, a job parked with every worker idle and
 * nothing queued or running can never be woken (drain means the owner has
 * stopped submitting, and wakes otherwise only come from running jobs):
 * those jobs are failed with a rendezvous-deadlock error instead of
 * hanging the drain. Between drains, parked jobs legitimately wait for
 * future submissions or external notify() calls and are left alone.
 *
 * A step takes no fleet-wide lock. Every job has a record at a stable
 * address whose atomic JobState is the whole protocol: notify() moves
 * Parked to Queued (the winner alone enqueues) or Running to Woken; a
 * Blocked step moves Running to Parked, or re-queues if it finds Woken;
 * the drain's deadlock sweep moves Parked to Finished. Deques hold record
 * pointers under per-worker mutexes, and counters are per worker, summed
 * by stats(). An idle worker announces itself in an atomic sleeper count,
 * scans every deque again, and only then sleeps; an enqueue signals only
 * when someone sleeps, and a wake from a job body whose own deque was
 * empty signals no one, because its worker runs the woken job as soon as
 * the step returns. So a job body must park (return Blocked) rather than
 * block its worker waiting on another job: a job it woke may be waiting
 * for exactly that worker. The scheduling lock is left to submission,
 * drain, the deadlock sweep, finishing a job, external notify() and
 * sleeping.
 *
 * A Fleet is started once and shut down once. A batch is submit() for each
 * job, then start() and shutdown(), which returns the results.
 */

#ifndef KVMARM_SIM_FLEET_HH
#define KVMARM_SIM_FLEET_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/thread_annotations.hh"

namespace kvmarm {

/** A pool of host threads executing machine jobs with work stealing. */
class Fleet
{
  public:
    /** A job body: typically builds a machine, sets CPU entries, and calls
     *  machine.run(). Runs entirely on one worker thread. */
    using JobFn = std::function<void()>;

    /** What one step of a resumable job did. */
    enum class StepOutcome
    {
        Done,    //!< job complete; never stepped again
        Blocked, //!< waiting on a peer; park until notify()
    };

    /** A resumable job body: advances until done or blocked. Steps of one
     *  job never overlap, but successive steps may run on different
     *  workers. */
    using StepFn = std::function<StepOutcome()>;

    /** Outcome of one job. */
    struct JobResult
    {
        std::string name;
        bool ok = false;
        std::string error;      //!< exception text when !ok
        double wallSeconds = 0; //!< host wall-clock total across steps
        unsigned worker = 0;    //!< worker thread that ran the last step
        /** Some step was taken from another worker's deque. A job woken
         *  onto its waker's deque runs off its home worker unstolen. */
        bool stolen = false;
        std::uint64_t steps = 0; //!< times the body was entered
        /** Deterministic submission key: the id of the submitting job
         *  (kExternalSubmitter for the owner thread) and that submitter's
         *  private submission sequence number. Identical at any worker
         *  count. */
        std::uint64_t submitter = 0;
        std::uint64_t seq = 0;
    };

    /** Pool-level counters over the Fleet's life. */
    struct Stats
    {
        std::uint64_t jobsRun = 0;
        /** Steps taken from another worker's deque. */
        std::uint64_t jobsStolen = 0;
        std::uint64_t jobsParked = 0;  //!< Blocked returns (park events)
        std::uint64_t jobsSpawned = 0; //!< submissions from job bodies
        std::uint64_t epochs = 0;      //!< completed drain() epochs
    };

    /** Submitter id reported for jobs submitted from outside any job body
     *  (the pool owner's thread, or any non-worker thread). */
    static constexpr std::uint64_t kExternalSubmitter = 0;

    /** @param threads Worker count; 0 means one per host hardware thread. */
    explicit Fleet(unsigned threads);

    /** Retires the workers if the pool is still live (any unfinished
     *  parked jobs are failed by the implicit drain; results are
     *  discarded). Prefer an explicit shutdown(). */
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    unsigned threads() const { return threads_; }

    /// @name Long-lived pool API
    /// @{

    /**
     * Spin up the worker pool. Jobs already submitted are picked up
     * immediately; subsequent submissions feed the running workers. Hard
     * error if the pool is already live or was shut down.
     */
    void start();

    /** True from start() until shutdown() retires the workers. */
    bool poolLive() const
    {
        return workersLive_.load(std::memory_order_acquire);
    }

    /**
     * Submit a job through the channel (thread-safe). Legal before
     * start() — the job queues until workers exist — and at any point
     * while the pool runs, including from inside a running job body (the
     * spawn case: the submission is stamped with the running job's id as
     * its submitter). Hard error after shutdown(). Returns the job's
     * handle for notify().
     */
    std::size_t submit(std::string name, JobFn fn);

    /** Submit a resumable job (same rules as submit()). */
    std::size_t submitResumable(std::string name, StepFn fn);

    /**
     * Wait until every submitted job — including jobs spawned while the
     * drain is in flight — has finished, then return the results of all
     * jobs completed since the previous drain (one *epoch*), ordered by
     * deterministic submission key. Jobs parked with no runnable peer
     * left to wake them are failed with a rendezvous-deadlock error (the
     * caller declared the submission channel idle by draining). The pool
     * stays live; submit() + drain() may be repeated. Must be called from
     * a non-worker thread; one drain at a time.
     */
    std::vector<JobResult> drain();

    /**
     * Drain the current epoch, retire the workers, and close the
     * submission channel: any later submit()/start() is a diagnosed hard
     * error. Returns the final epoch's results. Idempotent-hostile by
     * design — shutting down twice is also a hard error.
     */
    std::vector<JobResult> shutdown();

    /** Completed drain() epochs (published at each drain boundary;
     *  readable from any thread). */
    std::uint64_t epoch() const
    {
        return epochsDone_.load(std::memory_order_acquire);
    }
    /// @}

    /**
     * Wake a parked job (thread-safe; callable from job bodies — the
     * usual caller is a RingChannel wake hook running on a peer's
     * worker). Called from a job body, it queues the job at the front of
     * the calling worker's deque; otherwise at the back of its home
     * deque. If the job is mid-step, the wake is latched so the
     * subsequent Blocked return re-queues instead of parking. No-op for
     * queued/finished jobs or while no workers are live. A notify from a
     * job body takes no fleet-wide lock; one from any other thread takes
     * the scheduling lock, so it is ordered with the drain's deadlock
     * sweep: the job either runs or is failed, exactly once.
     */
    void notify(std::size_t index);

    /** Counters so far, summed over the workers' own counters. Exact
     *  once quiesced: after shutdown() returns, or after a drain with no
     *  external submitter or notifier racing it. */
    Stats stats() const;

  private:
    /** Lifecycle of one job. */
    enum class JobState : std::uint8_t
    {
        Queued,   //!< in some worker's deque
        Running,  //!< a worker is inside the body
        Parked,   //!< Blocked; in no deque, awaiting notify()
        Woken,    //!< Running with a latched notify()
        Finished, //!< done or failed
    };

    /**
     * One submitted job. Its address is stable for the Fleet's life, so
     * deques, notify() and the calling-job marker hold plain pointers.
     * The name, key and home are written under schedMutex_ before the
     * record is published and never change. fn and result belong to
     * whoever holds the job in state Running (or to the sweep, under
     * schedMutex_, once Parked); collectEpoch() reads the result of a
     * Finished job under schedMutex_.
     */
    struct JobRecord
    {
        std::atomic<JobState> state{JobState::Queued};
        unsigned home = 0; //!< worker the job was dealt to
        StepFn fn;         //!< released when the job finishes
        JobResult result;
        std::uint64_t id = 0;       //!< deterministic id (key hash chain)
        std::uint64_t childSeq = 0; //!< next seq this job hands a spawn
        /** Key path: the submitter chain's seq numbers (external jobs
         *  have a one-element path); lexicographic path order is the
         *  deterministic result order. */
        std::vector<std::uint64_t> path;
        bool returned = false; //!< already handed out by a drain
    };

    /** Counters one worker keeps; only that worker writes them. */
    struct alignas(64) WorkerCounters
    {
        std::atomic<std::uint64_t> run{0};
        std::atomic<std::uint64_t> stolen{0};
        std::atomic<std::uint64_t> parked{0};
        std::atomic<std::uint64_t> spawned{0};

        static void
        bump(std::atomic<std::uint64_t> &c)
        {
            c.store(c.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
        }
    };

    /** One worker's deque; the mutex covers only deque operations (job
     *  bodies run outside any lock). Lock order: schedMutex_ before any
     *  Worker::mutex, never the reverse. */
    struct alignas(64) Worker
    {
        Mutex mutex;
        std::deque<JobRecord *> jobs KVMARM_GUARDED_BY(mutex);
        WorkerCounters counters;
    };

    /** The job the calling thread is stepping, with its fleet and worker;
     *  all null outside job bodies. */
    struct CallingJob
    {
        const Fleet *fleet = nullptr;
        unsigned worker = 0;
        JobRecord *job = nullptr;
    };
    static thread_local CallingJob calling_;

    static constexpr unsigned kNoWorker = ~0u;
    /** The job table: chunk c holds kFirstChunk << c records, so a
     *  record never moves and 40 chunks cover any realistic fleet. */
    static constexpr std::size_t kFirstChunk = 64;
    static constexpr unsigned kMaxChunks = 40;

    /** The worker whose thread is calling from inside one of this
     *  fleet's job bodies, or kNoWorker. */
    unsigned callingWorker() const;
    /** Record @p index; the caller has seen jobCount_ exceed it. */
    JobRecord &record(std::size_t index) const;

    std::size_t submitLocked(std::string name, StepFn fn)
        KVMARM_REQUIRES(schedMutex_);
    /** Pop from @p w's own deque, else steal from another's. */
    JobRecord *findWork(unsigned w, bool &stolen);
    /** Queue @p job at the back of its home deque or, for a wake from
     *  worker @p waker's job body, at the front of the waker's deque.
     *  True when a sleeping worker should be signalled. */
    bool push(JobRecord &job, unsigned waker = kNoWorker);
    /** Wake one sleeper for a job that push() queued. */
    void signalLocked() KVMARM_REQUIRES(schedMutex_);
    void signal() KVMARM_EXCLUDES(schedMutex_);
    /** notify()'s transition; @p waker as for push(). True when a
     *  sleeping worker should be signalled. */
    bool wake(JobRecord &job, unsigned waker);
    void runStep(unsigned w, JobRecord &job, bool stolen);
    void failDeadlockedParked() KVMARM_REQUIRES(schedMutex_);
    std::vector<JobResult> collectEpoch() KVMARM_REQUIRES(schedMutex_);
    std::vector<JobResult> drainLocked(CondLock &lock)
        KVMARM_REQUIRES(schedMutex_);
    void retireWorkers();
    void workerMain(unsigned w);

    unsigned threads_;
    /** True while the worker pool is live. Atomic so notify()/poolLive()
     *  from job bodies (worker threads) stay race-free. */
    std::atomic<bool> workersLive_{false};
    std::atomic<std::uint64_t> epochsDone_{0};
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> pool_;

    /** Submission, drain, the deadlock sweep, finishing a job, external
     *  notify() and sleeping; never taken by a step that finds, runs and
     *  parks or re-queues a job. */
    Mutex schedMutex_;
    /** Workers sleep on cvWork_ (signalled by enqueues that find a
     *  sleeper); drain() sleeps on cvDone_ (signalled when unfinished_
     *  hits zero). Separate so a submission's signal can never be
     *  swallowed by the draining thread instead of a worker. */
    std::condition_variable_any cvWork_;
    std::condition_variable_any cvDone_;
    /** Chunks of the job table, each written once under schedMutex_
     *  before jobCount_ publishes its first record. */
    std::unique_ptr<JobRecord[]> chunks_[kMaxChunks];
    /** Records published so far (release on submit, acquire on read). */
    std::atomic<std::size_t> jobCount_{0};
    /** Workers that announced they are going to sleep. Changed only
     *  under schedMutex_; read without it by push(). */
    std::atomic<unsigned> sleepers_{0};
    /** Signals sent to sleepers and not yet taken. */
    unsigned signals_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    std::uint64_t externalSeq_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    std::size_t unfinished_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    bool draining_ KVMARM_GUARDED_BY(schedMutex_) = false;
    bool stopping_ KVMARM_GUARDED_BY(schedMutex_) = false;
    bool shutdown_ KVMARM_GUARDED_BY(schedMutex_) = false;
};

} // namespace kvmarm

#endif // KVMARM_SIM_FLEET_HH
