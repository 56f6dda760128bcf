#include "sim/fleet.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <thread>

#include "sim/logging.hh"

namespace kvmarm {

namespace {

// Deterministic job ids are an FNV-1a chain over the (submitter-id,
// submission-seq) key: a job's id hashes its submitter's id with its seq,
// so the id of any job — however deep the spawn tree — is a pure function
// of the submission key path and identical at any worker count.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnvChain(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

thread_local Fleet::CallingJob Fleet::calling_;

Fleet::Fleet(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
    // The Worker structs (deques + counters) exist for the Fleet's whole
    // life so submissions can be dealt to their home deque before the
    // worker threads are spawned; start()/retireWorkers() only manage the
    // threads.
    workers_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        workers_.push_back(std::make_unique<Worker>());
}

Fleet::~Fleet()
{
    if (!workersLive_.load(std::memory_order_acquire))
        return;
    {
        CondLock lock(schedMutex_);
        drainLocked(lock); // results discarded; parked jobs are failed
        shutdown_ = true;
    }
    retireWorkers();
}

std::size_t
Fleet::submit(std::string name, JobFn fn)
{
    if (!fn)
        fatal("Fleet::submit: job '%s' has no body", name.c_str());
    return submitResumable(std::move(name),
                           [f = std::move(fn)]() -> StepOutcome {
                               f();
                               return StepOutcome::Done;
                           });
}

std::size_t
Fleet::submitResumable(std::string name, StepFn fn)
{
    if (!fn)
        fatal("Fleet::submit: job '%s' has no body", name.c_str());
    CondLock lock(schedMutex_);
    return submitLocked(std::move(name), std::move(fn));
}

std::size_t
Fleet::submitLocked(std::string name, StepFn fn)
{
    if (shutdown_) {
        fatal("Fleet::submit: job '%s' submitted after shutdown() — the "
              "submission channel is closed; create a new Fleet",
              name.c_str());
    }

    const std::size_t index = jobCount_.load(std::memory_order_relaxed);
    const unsigned chunk = std::bit_width(index / kFirstChunk + 1) - 1;
    if (chunk >= kMaxChunks)
        fatal("Fleet::submit: job '%s' exceeds the job table (%zu jobs)",
              name.c_str(), index);
    if (!chunks_[chunk])
        chunks_[chunk] = std::make_unique<JobRecord[]>(kFirstChunk << chunk);
    JobRecord &job = record(index);

    // Resolve the submitter: a submission from inside one of this
    // fleet's job bodies is a spawn stamped with that job's id; anything
    // else (the owner thread, before start() or mid-run) is external.
    const unsigned caller = callingWorker();
    if (caller != kNoWorker) {
        JobRecord &parent = *calling_.job;
        job.result.submitter = parent.id;
        job.result.seq = parent.childSeq++;
        job.id = fnvChain(parent.id, job.result.seq);
        job.path = parent.path;
        job.path.push_back(job.result.seq);
        // Spawn arrival order races across workers; the id does not.
        job.home = static_cast<unsigned>(job.id % threads_);
        WorkerCounters::bump(workers_[caller]->counters.spawned);
    } else {
        job.result.submitter = kExternalSubmitter;
        job.result.seq = externalSeq_++;
        job.id = fnvChain(kFnvOffset, job.result.seq);
        job.path = {job.result.seq};
        // Round-robin deal in external submission order.
        job.home = static_cast<unsigned>(job.result.seq % threads_);
    }
    job.result.name = std::move(name);
    job.fn = std::move(fn);
    ++unfinished_;
    jobCount_.store(index + 1, std::memory_order_release);
    if (push(job))
        signalLocked();
    return index;
}

Fleet::JobRecord &
Fleet::record(std::size_t index) const
{
    const unsigned chunk = std::bit_width(index / kFirstChunk + 1) - 1;
    const std::size_t first = kFirstChunk * ((std::size_t{1} << chunk) - 1);
    return chunks_[chunk][index - first];
}

unsigned
Fleet::callingWorker() const
{
    return calling_.fleet == this && calling_.job ? calling_.worker
                                                  : kNoWorker;
}

Fleet::JobRecord *
Fleet::findWork(unsigned w, bool &stolen)
{
    {
        Worker &own = *workers_[w];
        MutexLock lock(own.mutex);
        if (!own.jobs.empty()) {
            JobRecord *job = own.jobs.front();
            own.jobs.pop_front();
            stolen = false;
            return job;
        }
    }
    // Scan the other workers starting just past the thief so steal traffic
    // spreads instead of always hammering worker 0. Victims are popped
    // from the back: the front is what the owner takes next, so stealing
    // the tail minimizes contention on the same job slot.
    for (unsigned off = 1; off < threads_; ++off) {
        Worker &victim = *workers_[(w + off) % threads_];
        MutexLock lock(victim.mutex);
        if (victim.jobs.empty())
            continue;
        JobRecord *job = victim.jobs.back();
        victim.jobs.pop_back();
        stolen = true;
        return job;
    }
    return nullptr;
}

bool
Fleet::push(JobRecord &job, unsigned waker)
{
    if (waker != kNoWorker) {
        // The waker's worker pops its own front next, as soon as the
        // waker's step returns: the handoff stays on one host thread, and
        // when nothing else waits there no one else needs waking.
        Worker &own = *workers_[waker];
        MutexLock lock(own.mutex);
        const bool runsNext = own.jobs.empty();
        own.jobs.push_front(&job);
        if (runsNext)
            return false;
    } else {
        Worker &home = *workers_[job.home];
        MutexLock lock(home.mutex);
        home.jobs.push_back(&job);
    }
    // A worker going to sleep announces itself before its last scan of
    // the deques: either that scan sees this job, or this load sees the
    // announcement.
    return sleepers_.load() != 0;
}

void
Fleet::signalLocked()
{
    if (signals_ >= sleepers_.load(std::memory_order_relaxed))
        return; // every sleeper is already on its way
    ++signals_;
    cvWork_.notify_one();
}

void
Fleet::signal()
{
    MutexLock lock(schedMutex_);
    signalLocked();
}

bool
Fleet::wake(JobRecord &job, unsigned waker)
{
    JobState s = job.state.load(std::memory_order_acquire);
    while (true) {
        switch (s) {
          case JobState::Parked:
            // Several wakes may race; the one that moves the job off
            // Parked alone queues it.
            if (job.state.compare_exchange_weak(s, JobState::Queued,
                                                std::memory_order_acq_rel))
                return push(job, waker);
            break;
          case JobState::Running:
            // Mid-step wake: latch it so a Blocked return re-queues
            // instead of parking. Without the latch this wake would be
            // lost.
            if (job.state.compare_exchange_weak(s, JobState::Woken,
                                                std::memory_order_acq_rel))
                return false;
            break;
          case JobState::Queued:
          case JobState::Woken:
            // The job steps again anyway. Writing the state back orders
            // this wake before that step's start.
            if (job.state.compare_exchange_weak(s, s,
                                                std::memory_order_acq_rel))
                return false;
            break;
          case JobState::Finished:
            return false;
        }
    }
}

void
Fleet::notify(std::size_t index)
{
    if (!workersLive_.load(std::memory_order_acquire))
        return;
    if (index >= jobCount_.load(std::memory_order_acquire))
        return;
    JobRecord &job = record(index);
    const unsigned waker = callingWorker();
    if (waker != kNoWorker) {
        // While a job body runs, its worker is awake, so the deadlock
        // sweep cannot run: no lock is needed.
        if (wake(job, waker))
            signal();
        return;
    }
    MutexLock lock(schedMutex_);
    if (wake(job, kNoWorker))
        signalLocked();
}

void
Fleet::failDeadlockedParked()
{
    // Only meaningful mid-drain: the owner has declared the channel idle,
    // so a parked job with no queued or running peer left has no possible
    // waker (wakes come from running jobs or from an owner that is now
    // blocked in drain()). Between drains a fully parked fleet is simply
    // waiting for future submissions or an external notify() and is left
    // alone. Every worker asleep with no signal outstanding means nothing
    // is queued or running: each sleeper scanned every deque under this
    // lock, a job body's wakes only queue on its own awake worker, and
    // any other enqueue signals a sleeper. External notifies take this
    // lock, so none races the sweep.
    if (!draining_ || sleepers_.load() != threads_ || signals_ != 0 ||
        unfinished_ == 0) {
        return;
    }
    const std::size_t count = jobCount_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
        JobRecord &job = record(i);
        JobState s = JobState::Parked;
        if (!job.state.compare_exchange_strong(s, JobState::Finished,
                                               std::memory_order_acq_rel))
            continue;
        job.result.ok = false;
        job.result.error = "fleet rendezvous deadlock: job parked with no "
                           "runnable peer left to wake it";
        job.fn = nullptr;
        --unfinished_;
    }
    cvDone_.notify_all();
}

void
Fleet::runStep(unsigned w, JobRecord &job, bool stolen)
{
    WorkerCounters &counters = workers_[w]->counters;
    // Only the worker that took a Queued job from a deque runs it. The
    // exchange orders every wake that found the job Queued before the
    // step.
    job.state.exchange(JobState::Running, std::memory_order_acq_rel);
    JobResult &res = job.result;
    res.worker = w;
    res.stolen |= stolen;
    ++res.steps;
    if (stolen)
        WorkerCounters::bump(counters.stolen);

    calling_.job = &job;
    // domlint: allow(wall-clock) — measurement only, never feeds sim state
    auto t0 = std::chrono::steady_clock::now();
    StepOutcome out = StepOutcome::Done;
    bool failed = false;
    try {
        out = job.fn();
        if (out == StepOutcome::Done)
            res.ok = true;
    } catch (const std::exception &e) {
        res.error = e.what();
        failed = true;
    } catch (...) {
        res.error = "unknown exception";
        failed = true;
    }
    // domlint: allow(wall-clock) — measurement only, never feeds sim state
    auto t1 = std::chrono::steady_clock::now();
    res.wallSeconds += std::chrono::duration<double>(t1 - t0).count();
    calling_.job = nullptr;

    if (!failed && out == StepOutcome::Blocked) {
        JobState s = JobState::Running;
        if (job.state.compare_exchange_strong(s, JobState::Parked,
                                              std::memory_order_acq_rel)) {
            // From here a notify() may queue the job on another worker:
            // this worker no longer touches it.
            WorkerCounters::bump(counters.parked);
            return;
        }
        // notify() landed while the step ran; go straight back to the
        // queue.
        job.state.exchange(JobState::Queued, std::memory_order_acq_rel);
        if (push(job))
            signal();
        return;
    }

    WorkerCounters::bump(counters.run);
    // What the body owns goes before the drain that returns its result.
    job.fn = nullptr;
    MutexLock lock(schedMutex_);
    job.state.store(JobState::Finished, std::memory_order_release);
    if (--unfinished_ == 0)
        cvDone_.notify_all();
}

void
Fleet::workerMain(unsigned w)
{
    calling_ = CallingJob{this, w, nullptr};
    while (true) {
        bool stolen = false;
        JobRecord *job = findWork(w, stolen);
        if (!job) {
            CondLock lock(schedMutex_);
            // Announce, then look once more: an enqueue either lands
            // before this scan or sees the announcement and signals.
            sleepers_.fetch_add(1);
            job = findWork(w, stolen);
            if (!job) {
                // If this was the last worker to go to sleep during a
                // drain, any survivors are unwakeable parked jobs — fail
                // them so the drain completes instead of hanging.
                failDeadlockedParked();
                while (!stopping_ && signals_ == 0)
                    cvWork_.wait(lock.native());
                if (signals_ > 0)
                    --signals_;
            }
            sleepers_.fetch_sub(1);
            if (!job) {
                if (stopping_)
                    return;
                continue;
            }
        }
        runStep(w, *job, stolen);
    }
}

void
Fleet::start()
{
    {
        CondLock lock(schedMutex_);
        if (shutdown_)
            fatal("Fleet::start: the pool was shut down — create a new "
                  "Fleet");
        if (workersLive_.load(std::memory_order_acquire))
            fatal("Fleet::start: the worker pool is already live");
        workersLive_.store(true, std::memory_order_release);
    }
    pool_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        pool_.emplace_back([this, w] { workerMain(w); });
}

std::vector<Fleet::JobResult>
Fleet::collectEpoch()
{
    // Deterministic result order: lexicographic on the submission key
    // path, so external jobs come out in submission order and a parent's
    // spawns sort directly after the parent in spawn order — never in
    // completion or arrival order.
    std::vector<JobRecord *> order;
    const std::size_t count = jobCount_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
        JobRecord &job = record(i);
        if (job.state.load(std::memory_order_acquire) == JobState::Finished &&
            !job.returned)
            order.push_back(&job);
    }
    std::sort(order.begin(), order.end(),
              [](const JobRecord *a, const JobRecord *b) {
                  return a->path < b->path;
              });
    std::vector<JobResult> out;
    out.reserve(order.size());
    for (JobRecord *job : order) {
        job->returned = true;
        out.push_back(std::move(job->result));
    }
    return out;
}

std::vector<Fleet::JobResult>
Fleet::drainLocked(CondLock &lock)
{
    if (draining_)
        fatal("Fleet::drain: a drain is already in progress");
    if (callingWorker() != kNoWorker)
        fatal("Fleet::drain: called from inside a job body — only the "
              "pool owner may quiesce the fleet");
    draining_ = true;
    failDeadlockedParked(); // every worker may already be asleep
    while (unfinished_ != 0) {
        cvDone_.wait(lock.native());
        failDeadlockedParked();
    }
    draining_ = false;
    auto out = collectEpoch();
    epochsDone_.fetch_add(1, std::memory_order_release);
    return out;
}

std::vector<Fleet::JobResult>
Fleet::drain()
{
    CondLock lock(schedMutex_);
    if (!workersLive_.load(std::memory_order_acquire))
        fatal("Fleet::drain: the worker pool is not live — start() it "
              "first");
    return drainLocked(lock);
}

std::vector<Fleet::JobResult>
Fleet::shutdown()
{
    std::vector<JobResult> out;
    {
        CondLock lock(schedMutex_);
        if (shutdown_)
            fatal("Fleet::shutdown: the pool was already shut down");
        if (!workersLive_.load(std::memory_order_acquire))
            fatal("Fleet::shutdown: the worker pool is not live — start() "
                  "it first");
        out = drainLocked(lock);
        shutdown_ = true;
    }
    retireWorkers();
    return out;
}

Fleet::Stats
Fleet::stats() const
{
    Stats s;
    for (const std::unique_ptr<Worker> &wk : workers_) {
        const WorkerCounters &c = wk->counters;
        s.jobsRun += c.run.load(std::memory_order_relaxed);
        s.jobsStolen += c.stolen.load(std::memory_order_relaxed);
        s.jobsParked += c.parked.load(std::memory_order_relaxed);
        s.jobsSpawned += c.spawned.load(std::memory_order_relaxed);
    }
    s.epochs = epochsDone_.load(std::memory_order_acquire);
    return s;
}

void
Fleet::retireWorkers()
{
    {
        CondLock lock(schedMutex_);
        stopping_ = true;
        cvWork_.notify_all();
    }
    for (std::thread &t : pool_)
        t.join();
    pool_.clear();
    workersLive_.store(false, std::memory_order_release);
}

} // namespace kvmarm
