#include <algorithm>
#include <cmath>
#include <cstdio>

#include "suite.hh"

namespace kvmarm::suite {

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Histogram::add(double ns)
{
    ++count_;
    sum_ += ns;
    int idx = 0;
    if (ns >= 1.0) {
        int e = std::ilogb(ns);
        int sub = static_cast<int>((std::ldexp(ns, -e) - 1.0) * kSub);
        idx = std::min(e * kSub + std::min(sub, kSub - 1), kBuckets - 1);
    }
    ++bins_[idx];
}

void
Histogram::merge(const Histogram &o)
{
    for (int i = 0; i < kBuckets; ++i)
        bins_[i] += o.bins_[i];
    count_ += o.count_;
    sum_ += o.sum_;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * double(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += bins_[i];
        if (seen >= rank)
            return std::ldexp(1.0 + (i % kSub + 0.5) / kSub, i / kSub);
    }
    return 0;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t
Tracer::open(const std::string &name, std::uint64_t parent)
{
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    const unsigned tid = tids_.try_emplace(std::this_thread::get_id(),
                                           unsigned(tids_.size()) + 1)
                             .first->second;
    spans_.push_back(Span{name, parent, now, -1, tid});
    return spans_.size(); // ids are 1-based; 0 means "no span"
}

void
Tracer::close(std::uint64_t id)
{
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).endUs = now;
}

std::vector<double>
Tracer::selfUs() const
{
    // Children of one span may overlap (fleet jobs on parallel workers),
    // so subtract the union of their intervals clipped to the parent.
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent != 0 && s.endUs >= 0)
            kids[s.parent - 1].emplace_back(s.startUs, s.endUs);
    }
    std::vector<double> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endUs < 0)
            continue;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        double cur = s.startUs;
        for (auto [a, b] : iv) {
            a = std::max(a, cur);
            b = std::min(b, s.endUs);
            if (b > a) {
                covered += b - a;
                cur = b;
            }
        }
        self[i] = (s.endUs - s.startUs) - covered;
    }
    return self;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> self = selfUs();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i] * 1e-6;
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<double> self = selfUs();
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endUs < 0)
            continue;
        std::fprintf(f,
                     "%s{\"name\": %s, \"cat\": \"kvmarm_bench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                     "\"parent\": %llu, \"self_us\": %.3f}}",
                     first ? "" : ",\n", jsonString(s.name).c_str(), s.tid,
                     s.startUs, s.endUs - s.startUs, i + 1,
                     static_cast<unsigned long long>(s.parent), self[i]);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace kvmarm::suite
