/**
 * @file
 * Shared pieces of kvmarm_bench: the span tracer and latency histograms,
 * the seeded guest-op generator and executor, and the workload interface.
 *
 * Everything here lives on the benchmark side of the simulator's public
 * API. Spans and per-op timings are taken around calls the benchmark makes
 * into the simulator; nothing inside src/ is instrumented.
 */

#ifndef KVMARM_BENCH_SUITE_HH
#define KVMARM_BENCH_SUITE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/types.hh"

namespace kvmarm::arm {
class ArmCpu;
} // namespace kvmarm::arm

namespace kvmarm::suite {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** FNV-1a, the digest every determinism gate in the repo uses. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Mix a seed with a stream number into a well-spread generator seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** @p s as a quoted JSON string (control characters become spaces). */
std::string jsonString(const std::string &s);

/// @name Tracing
/// @{

/** Log-bucket histogram of host nanoseconds: 8 buckets per power of two,
 *  so quantiles are exact to within 1/16 of their value. */
class Histogram
{
  public:
    void add(double ns);
    void merge(const Histogram &o);
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    /** Bucket-midpoint estimate of quantile @p q in [0, 1]. */
    double quantile(double q) const;

  private:
    static constexpr int kSub = 8;
    static constexpr int kBuckets = 48 * kSub;
    std::array<std::uint64_t, kBuckets> bins_{};
    std::uint64_t count_ = 0;
    double sum_ = 0;
};

/**
 * In-memory span recorder. A span has a name, start, end, the id of the
 * span that caused it and the host thread it ran on; spans are written
 * once, at exit, as Chrome trace-event JSON. Thread-safe: fleet jobs open
 * spans from worker threads.
 */
class Tracer
{
  public:
    Tracer();

    std::uint64_t open(const std::string &name, std::uint64_t parent);
    void close(std::uint64_t id);

    /** Self time (duration minus the union of its children) summed per
     *  span name, in seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::uint64_t parent = 0;
        double startUs = 0;
        double endUs = -1;
        unsigned tid = 0;
    };

    std::vector<double> selfUs() const;

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, unsigned> tids_;
};

/** RAII span; a null tracer makes it a no-op with id 0. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, std::uint64_t parent)
        : tracer_(tracer), id_(tracer ? tracer->open(name, parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::uint64_t id_;
};
/// @}

/// @name Seeded guest operations
/// @{

/** What one generated guest op does; each kind is one layer entry point. */
enum class OpKind : std::uint8_t
{
    LoadHot,     //!< ArmCpu::memRead in the 32-page hot set (arm MMU/TLB)
    LoadCold,    //!< ArmCpu::memRead anywhere in the working set
    Store,       //!< ArmCpu::memWrite, 80% hot / 20% cold
    Hvc,         //!< ArmCpu::hvc: two world switches, no host work
    MmioKernel,  //!< store to the in-kernel test device
    MmioUser,    //!< store that exits to the user-space MMIO handler
    VgicDist,    //!< load from the virtual GIC distributor
    SysregTrap,  //!< ArmCpu::sensitiveOp trapped by HCR
    Stage2Fault, //!< first store to a fresh page: Stage-2 fault + map
    Count,
};

inline constexpr std::size_t kNumOpKinds =
    static_cast<std::size_t>(OpKind::Count);

/** Per-layer metric stem of each kind ("core.hvc" -> core.hvc_ns). */
extern const std::array<const char *, kNumOpKinds> kOpMetric;

/** Relative frequency of each op kind, in parts per million, and the
 *  working set the memory ops draw from. */
struct OpMix
{
    std::array<std::uint32_t, kNumOpKinds> ppm{};
    std::uint32_t hotPages = 32;   //!< hot set: pages [0, hotPages)
    std::uint32_t coldPages = 0;   //!< cold draws: pages [0, coldPages)
    std::uint32_t freshPages = 0;  //!< capacity of the Stage-2 fault region
};

/** A generated op stream: one packed word per op (kind, argument). */
using OpPlan = std::vector<std::uint32_t>;

/**
 * Generate @p n ops from @p seed. Each kind occurs exactly
 * n * ppm / 1e6 times (the remainder goes to the most frequent kind), in a
 * seeded random order, so the seed changes the order and addresses but
 * not the mix. Stage2Fault ops number the fresh pages in stream order.
 */
OpPlan makePlan(std::uint64_t seed, const OpMix &mix, std::size_t n);

/** Where a VM's ops land: its RAM base and its fresh-page region. */
struct OpTarget
{
    Addr ram = 0;
    Addr fresh = 0;
};

/** Host and simulated cost of each op kind, filled only when traced. */
struct OpStats
{
    std::array<Histogram, kNumOpKinds> host;
    std::array<std::uint64_t, kNumOpKinds> simCycles{};

    void merge(const OpStats &o);
    std::uint64_t ops() const;
};

/** Execute @p plan on @p cpu (inside the guest). With @p stats, time every
 *  op on the host clock and the simulated clock. */
void runOps(arm::ArmCpu &cpu, const OpPlan &plan, const OpTarget &target,
            OpStats *stats);
/// @}

/// @name Workloads
/// @{

/** Per-layer metric values of one traced rep, by metric name. */
using Layers = std::map<std::string, double>;

/** What one rep produced. */
struct RepOutcome
{
    double setupSeconds = 0;  //!< host time before the timed region
    double runSeconds = 0;    //!< host time of the timed work
    /** Host-speed probe time beside this rep (filled by the runner). */
    double probeSeconds = 0;
    std::uint64_t simCycles = 0;
    /** One digest per unit (VM job or paper cell), in canonical order. */
    std::vector<std::uint64_t> digests;
    unsigned failed = 0;      //!< units that threw or reported !ok
    std::vector<std::string> errors;
    Layers layers;            //!< traced reps only
    /** Host ns per call by metric stem ("core.hvc"); traced reps only. */
    std::map<std::string, Histogram> latency;
};

/** Tracing context of one rep (tracer null when untraced). */
struct RepContext
{
    unsigned rep = 0;
    Tracer *tracer = nullptr;
    std::uint64_t span = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    /** KVMARM_CHECK mode the workload pins for its machines. */
    virtual const char *checkMode() const = 0;

    /** Generate every input from @p seed; runs before any timing. */
    virtual void prepare(std::uint64_t seed) = 0;

    /** Digest of the generated inputs (proves the seed is used). */
    virtual std::uint64_t planHash() const = 0;

    /** Set up, run the timed work and tear down once. */
    virtual RepOutcome rep(const RepContext &ctx) = 0;
};

/** Fleet worker threads, on every host: the reference host's CPU count. */
inline constexpr unsigned kFleetWorkers = 4;

/** The five workloads, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Null for an unknown name. @p smoke selects CI-sized inputs. */
std::unique_ptr<Workload> makeWorkload(const std::string &name, bool smoke);
/// @}

} // namespace kvmarm::suite

#endif // KVMARM_BENCH_SUITE_HH
