/**
 * @file
 * kvmarm_bench: the repository benchmark (README.md).
 *
 *   kvmarm_bench --workload NAME --seed N --seconds S --trace 0|1
 *                [--trace-file PATH]
 *   kvmarm_bench --smoke [--trace-file PATH]
 *
 * A run generates the workload's inputs from the seed, then repeats the
 * workload — a fresh set-up and the timed work each time — until S seconds
 * have passed and at least three untraced reps are done. Every rep's
 * per-unit simulation digests must equal the first rep's. The last line of
 * standard output is one JSON object: correct / attempted / failed and the
 * end-to-end metrics (medians over untraced reps, times scaled to the
 * reference host by a probe timed beside each rep) or, with --trace 1,
 * the per-layer metrics of the traced reps, which alternate with untraced
 * ones. --smoke runs every workload at CI sizes: two untraced reps, one
 * traced rep and the seed-2 input digest, one JSON line per workload.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "suite.hh"

namespace {

using namespace kvmarm;
using namespace kvmarm::suite;

struct Metric
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported with --trace 0. */
constexpr Metric kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics, reported with --trace 1 (0 where a workload does
 *  not reach the layer). */
constexpr Metric kPerLayer[] = {
    {"sim_cycles", "cycles"},
    {"core.hvc_ns", "ns/op"},
    {"core.mmio_kernel_ns", "ns/op"},
    {"core.mmio_user_ns", "ns/op"},
    {"core.vgic_dist_ns", "ns/op"},
    {"core.stage2_fault_ns", "ns/op"},
    {"core.sysreg_trap_ns", "ns/op"},
    {"core.hvc_sim_cycles", "cycles/op"},
    {"core.mmio_kernel_sim_cycles", "cycles/op"},
    {"core.mmio_user_sim_cycles", "cycles/op"},
    {"core.vgic_dist_sim_cycles", "cycles/op"},
    {"core.stage2_fault_sim_cycles", "cycles/op"},
    {"core.sysreg_trap_sim_cycles", "cycles/op"},
    {"core.world_switches", "count"},
    {"core.exits_per_op", "exits/op"},
    {"core.stage2_faults", "count"},
    {"core.vm_create_us", "us/call"},
    {"arm.load_hot_ns", "ns/op"},
    {"arm.load_cold_ns", "ns/op"},
    {"arm.store_ns", "ns/op"},
    {"arm.tlb.hits", "count"},
    {"arm.tlb.misses", "count"},
    {"arm.tlb.hit_ratio", "fraction"},
    {"mem.cow_faults", "count"},
    {"mem.private_pages", "count"},
    {"mem.shared_pages", "count"},
    {"host.boot_us", "us/call"},
    {"host.mm_used_pages", "count"},
    {"sim.fleet.busy_frac", "fraction"},
    {"sim.fleet.critical_path_frac", "fraction"},
    {"sim.fleet.jobs_stolen", "count"},
    {"sim.fleet.jobs_parked", "count"},
    {"sim.snapshot.take_us", "us/call"},
    {"sim.snapshot.restore_us", "us/call"},
    {"sim.snapshot.bytes", "bytes"},
    {"sim.events.heap_allocs", "count"},
    {"sim.ring.windows", "count"},
    {"sim.ring.step_us", "us/step"},
    {"vdev.vring.msgs", "count"},
    {"vdev.vring.msg_us", "us/msg"},
    {"check.events", "count"},
    {"check.violations", "count"},
    {"workload.table3_err_pct", "%"},
    {"workload.table3_pct", "%"},
    {"workload.lmbench_up_pct", "%"},
    {"workload.lmbench_smp_pct", "%"},
    {"workload.apps_up_pct", "%"},
    {"workload.apps_smp_pct", "%"},
    {"workload.native_pct", "%"},
    {"workload.virt_arm_pct", "%"},
    {"workload.virt_x86_pct", "%"},
    {"trace_overhead", "ratio"},
};

/** Untraced reps every run makes at least, whatever --seconds says. */
constexpr unsigned kMinReps = 3;

/** Sorted-copy quantile with linear interpolation (q in [0, 1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/**
 * Fixed host-speed probe, timed on both sides of every rep: on a shared
 * host, speed drifts by up to a third over minutes. An integer loop, then
 * a dependent walk over a 2 MiB random cycle, because an integer loop
 * alone misses the slowdowns that contention for caches and memory
 * causes. The walk's table is built once, so the probe leaves the heap —
 * and with it the next rep's set-up — undisturbed.
 */
double
hostProbe()
{
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> order(1u << 19);
        std::iota(order.begin(), order.end(), 0u);
        Rng rng(1);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.range(i)]);
        std::vector<std::uint32_t> cycle(order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            cycle[order[i]] = order[(i + 1) % order.size()];
        return cycle;
    }();

    Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (unsigned i = 0; i < (1u << 21); ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    std::uint32_t at = 0;
    for (unsigned i = 0; i < (1u << 17); ++i)
        at = next[at];
    benchmark::DoNotOptimize(x);
    benchmark::DoNotOptimize(at);
    return seconds(t0, Clock::now());
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Everything one run measured. */
struct RunResult
{
    std::vector<RepOutcome> plain;
    std::vector<RepOutcome> traced;
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> errors;
};

/**
 * Repeat the workload until @p budget seconds have passed and the minimum
 * rep counts are met. With a tracer, reps alternate untraced / traced.
 * Every rep's unit digests are gated against the first good rep's.
 */
RunResult
runReps(Workload &wl, double budget, Tracer *tracer, unsigned minPlain,
        unsigned minTraced)
{
    RunResult r;
    std::vector<std::uint64_t> ref;
    bool haveRef = false;
    const Clock::time_point start = Clock::now();
    for (unsigned k = 0;; ++k) {
        if (seconds(start, Clock::now()) >= budget &&
            r.plain.size() >= minPlain && r.traced.size() >= minTraced)
            break;
        const bool traced = tracer && k % 2 == 1;
        const double probeBefore = hostProbe();

        RepContext ctx;
        ctx.rep = k;
        ctx.tracer = traced ? tracer : nullptr;
        ctx.span = traced ? tracer->open(std::string(wl.name()) + "/rep" +
                                             std::to_string(k),
                                         0)
                          : 0;
        RepOutcome o;
        try {
            o = wl.rep(ctx);
        } catch (const std::exception &e) {
            o = RepOutcome{};
            o.failed = 1;
            o.errors.push_back(e.what());
        }
        if (ctx.span)
            tracer->close(ctx.span);
        o.probeSeconds = (probeBefore + hostProbe()) / 2;

        unsigned mismatched = 0;
        if (!haveRef && o.failed == 0) {
            ref = o.digests;
            haveRef = true;
        } else if (haveRef) {
            for (std::size_t i = 0; i < std::max(ref.size(), o.digests.size());
                 ++i) {
                if (i >= ref.size() || i >= o.digests.size() ||
                    ref[i] != o.digests[i])
                    ++mismatched;
            }
            if (mismatched)
                o.errors.push_back(std::to_string(mismatched) +
                                   " unit digest(s) differ from the first "
                                   "rep");
        }
        const unsigned units = static_cast<unsigned>(
            std::max<std::size_t>({ref.size(), o.digests.size(), 1}));
        r.attempted += units;
        r.failed += std::min(units, o.failed + mismatched);
        for (const std::string &e : o.errors)
            r.errors.push_back("rep " + std::to_string(k) + ": " + e);
        (traced ? r.traced : r.plain).push_back(std::move(o));
    }
    return r;
}

/** Probe time on the reference host (the 4-vCPU Xeon VM the bounds were
 *  measured on, when its host is quiet). */
constexpr double kReferenceProbeSeconds = 0.008;

/** Per-rep @p f. With @p scale, in reference-host seconds: multiplied by
 *  the reference probe time over the probe time beside the rep. */
std::vector<double>
series(const std::vector<RepOutcome> &reps, double RepOutcome::*f,
       bool scale)
{
    std::vector<double> v;
    for (const RepOutcome &o : reps)
        v.push_back(scale ? o.*f * kReferenceProbeSeconds / o.probeSeconds
                          : o.*f);
    return v;
}

/** Medians reported for the end-to-end metrics. */
std::vector<double>
endToEnd(const RunResult &r)
{
    return {median(series(r.plain, &RepOutcome::runSeconds, true)),
            median(series(r.plain, &RepOutcome::setupSeconds, true)),
            peakRssMiB()};
}

/** Per-layer values: medians over traced reps, plus trace_overhead. */
std::vector<double>
perLayer(const RunResult &r)
{
    std::vector<double> out;
    for (const Metric &m : kPerLayer) {
        const std::string name = m.name;
        if (name == "trace_overhead") {
            const double plain =
                median(series(r.plain, &RepOutcome::runSeconds, true));
            const double traced =
                median(series(r.traced, &RepOutcome::runSeconds, true));
            out.push_back(plain > 0 ? traced / plain : 0);
            continue;
        }
        std::vector<double> v;
        for (const RepOutcome &o : r.traced) {
            if (name == "sim_cycles") {
                v.push_back(double(o.simCycles));
                continue;
            }
            auto it = o.layers.find(name);
            v.push_back(it == o.layers.end() ? 0.0 : it->second);
        }
        out.push_back(median(v));
    }
    return out;
}

template <std::size_t N>
std::string
metricsJson(const Metric (&metrics)[N], const std::vector<double> &values)
{
    std::string s = "{";
    for (std::size_t i = 0; i < N; ++i) {
        s += (i ? ", " : "") + jsonString(metrics[i].name) +
             ": {\"value\": " + num(values[i]) +
             ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return s + "}";
}

std::string
arrayJson(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", " : "") + num(v[i]);
    return s + "]";
}

std::string
statsJson(const std::vector<double> &v)
{
    if (v.empty())
        return "{\"n\": 0}";
    return "{\"n\": " + std::to_string(v.size()) +
           ", \"median\": " + num(median(v)) +
           ", \"q1\": " + num(quantile(v, 0.25)) +
           ", \"q3\": " + num(quantile(v, 0.75)) +
           ", \"min\": " + num(*std::min_element(v.begin(), v.end())) +
           ", \"max\": " + num(*std::max_element(v.begin(), v.end())) + "}";
}

/** The run's detail record: metadata, rep distributions, trace summary. */
std::string
detailJson(const Workload &wl, std::uint64_t seed, double budget,
           const RunResult &r, const Tracer *tracer,
           const std::string &traceFile)
{
    std::string s = "{\"kvmarm_bench\": {";
    s += "\"workload\": " + jsonString(wl.name());
    s += ", \"seed\": " + std::to_string(seed);
    s += ", \"seconds\": " + num(budget);
    s += ", \"trace\": " + std::string(tracer ? "1" : "0");
    s += ", \"check_mode\": " + jsonString(wl.checkMode());
    s += ", \"plan_hash\": " + hex(wl.planHash());
    s += ", \"host_cpus\": " + std::to_string(hostCpus());
    s += ", \"workers\": " + std::to_string(kFleetWorkers);
    s += ", \"build_type\": " + jsonString(KVMARM_BENCH_BUILD_TYPE);
#if defined(__clang__)
    s += ", \"compiler\": " + jsonString("clang " __clang_version__);
#elif defined(__GNUC__)
    s += ", \"compiler\": " + jsonString("gcc " __VERSION__);
#endif
    // Reference-host seconds (the reported metrics), then the raw
    // per-rep measurements they were scaled from.
    s += ", \"run_s\": " +
         statsJson(series(r.plain, &RepOutcome::runSeconds, true));
    s += ", \"setup_s\": " +
         statsJson(series(r.plain, &RepOutcome::setupSeconds, true));
    s += ", \"peak_rss_mb\": " + num(peakRssMiB());
    s += ", \"reps\": {\"run_s\": " +
         arrayJson(series(r.plain, &RepOutcome::runSeconds, false)) +
         ", \"setup_s\": " +
         arrayJson(series(r.plain, &RepOutcome::setupSeconds, false)) +
         ", \"probe_s\": " +
         arrayJson(series(r.plain, &RepOutcome::probeSeconds, false)) + "}";
    s += ", \"sim_cycles\": " +
         std::to_string(r.plain.empty() ? 0 : r.plain.front().simCycles);
    if (tracer) {
        s += ", \"traced_run_s\": " +
             statsJson(series(r.traced, &RepOutcome::runSeconds, true));
        std::map<std::string, Histogram> lat;
        for (const RepOutcome &o : r.traced)
            for (const auto &[name, h] : o.latency)
                lat[name].merge(h);
        s += ", \"latency_ns\": {";
        bool first = true;
        for (const auto &[name, h] : lat) {
            s += (first ? "" : ", ") + jsonString(name) +
                 ": {\"n\": " + std::to_string(h.count()) +
                 ", \"mean\": " + num(h.mean()) +
                 ", \"median\": " + num(h.quantile(0.5)) +
                 ", \"p99\": " + num(h.quantile(0.99)) + "}";
            first = false;
        }
        s += "}, \"self_s\": {";
        first = true;
        for (const auto &[name, secs] : tracer->selfSeconds()) {
            s += (first ? "" : ", ") + jsonString(name) + ": " + num(secs);
            first = false;
        }
        s += "}, \"trace_file\": " + jsonString(traceFile);
    }
    s += ", \"errors\": [";
    for (std::size_t i = 0; i < r.errors.size() && i < 20; ++i)
        s += (i ? ", " : "") + jsonString(r.errors[i]);
    return s + "]}}";
}

std::string
resultJson(const RunResult &r, const std::string &metrics)
{
    return "{\"correct\": " + std::string(r.failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"metrics\": " + metrics + "}";
}

bool
writeTrace(const Tracer &tracer, const std::string &path)
{
    if (path.empty() || tracer.writeChrome(path))
        return true;
    std::fprintf(stderr, "kvmarm_bench: cannot write %s\n", path.c_str());
    return false;
}

/** CI smoke: every workload at smoke sizes, one JSON line each. */
int
smoke(const std::string &traceFile)
{
    Tracer tracer;
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        std::unique_ptr<Workload> wl = makeWorkload(name, true);
        wl->prepare(2);
        const std::uint64_t hash2 = wl->planHash();
        wl->prepare(1);
        RunResult r = runReps(*wl, 0, &tracer, 2, 1);
        ok = ok && r.failed == 0;
        std::printf("{\"smoke\": {\"workload\": %s, \"plan_hash\": [%s, %s], "
                    "\"result\": %s, \"per_layer\": %s}}\n",
                    jsonString(name).c_str(), hex(wl->planHash()).c_str(),
                    hex(hash2).c_str(),
                    resultJson(r, metricsJson(kEndToEnd, endToEnd(r)))
                        .c_str(),
                    metricsJson(kPerLayer, perLayer(r)).c_str());
        for (const std::string &e : r.errors)
            std::fprintf(stderr, "kvmarm_bench: %s: %s\n", name.c_str(),
                         e.c_str());
    }
    return writeTrace(tracer, traceFile) && ok ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: kvmarm_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH]\n"
                 "       kvmarm_bench --smoke [--trace-file PATH]\n"
                 "workloads:");
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string traceFile;
    std::uint64_t seed = 0;
    double budget = -1;
    int trace = -1;
    bool smokeMode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        char *end = nullptr;
        if (a == "--smoke") {
            smokeMode = true;
        } else if (a == "--workload" && hasValue) {
            workload = argv[++i];
        } else if (a == "--trace-file" && hasValue) {
            traceFile = argv[++i];
        } else if (a == "--seed" && hasValue) {
            seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0')
                return usage();
        } else if (a == "--seconds" && hasValue) {
            budget = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(budget >= 0 && budget <= 3600))
                return usage();
        } else if (a == "--trace" && hasValue) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage();
            trace = v == "1";
        } else {
            return usage();
        }
    }

    setInformEnabled(false);
    try {
        if (smokeMode)
            return smoke(traceFile);
        if (workload.empty() || budget < 0 || trace < 0)
            return usage();
        std::unique_ptr<Workload> wl = makeWorkload(workload, false);
        if (!wl)
            return usage();
        wl->prepare(seed);

        Tracer tracer;
        Tracer *tr = trace ? &tracer : nullptr;
        RunResult r = runReps(*wl, budget, tr, kMinReps, trace ? 1 : 0);
        if (tr && !writeTrace(tracer, traceFile))
            return 1;

        const std::vector<double> e2e = endToEnd(r);
        std::printf("kvmarm_bench %s seed %llu: %zu reps, run_s %.4f, "
                    "setup_s %.4f, peak_rss_mb %.1f, %u/%u units failed\n",
                    wl->name(), static_cast<unsigned long long>(seed),
                    r.plain.size() + r.traced.size(), e2e[0], e2e[1], e2e[2],
                    r.failed, r.attempted);
        for (const std::string &e : r.errors)
            std::fprintf(stderr, "kvmarm_bench: %s\n", e.c_str());
        std::printf("%s\n",
                    detailJson(*wl, seed, budget, r, tr, traceFile).c_str());
        std::printf("%s\n",
                    resultJson(r, trace ? metricsJson(kPerLayer, perLayer(r))
                                        : metricsJson(kEndToEnd, e2e))
                        .c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "kvmarm_bench: %s\n", e.what());
        return 1;
    }
}
