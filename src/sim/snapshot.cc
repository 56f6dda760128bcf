#include "sim/snapshot.hh"

#include "sim/logging.hh"
#include "sim/machine_base.hh"
#include "sim/stats.hh"

namespace kvmarm {

void
SnapshotWriter::raw(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    bytes_.insert(bytes_.end(), b, b + n);
}

void
SnapshotWriter::size(std::size_t n)
{
    auto n32 = static_cast<std::uint32_t>(n);
    raw(&n32, sizeof(n32));
}

void
SnapshotWriter::str(const std::string &s)
{
    size(s.size());
    raw(s.data(), s.size());
}

void
SnapshotWriter::stats(const StatGroup &stats)
{
    size(stats.counters().size());
    for (const auto &[name, c] : stats.counters()) {
        str(name);
        std::uint64_t v = c.value();
        pod(v);
    }
    size(stats.scalars().size());
    for (const auto &[name, s] : stats.scalars()) {
        str(name);
        std::uint64_t count = s.count();
        double sum = s.sum(), mn = s.min(), mx = s.max();
        pod(count, sum, mn, mx);
    }
}

void
SnapshotWriter::attach(std::shared_ptr<const void> a)
{
    if (hasAttachment_)
        fatal("SnapshotWriter: a record may carry at most one attachment");
    attachment_ = std::move(a);
    hasAttachment_ = true;
}

SnapshotRecord
SnapshotWriter::finish(std::string key)
{
    return SnapshotRecord{std::move(key), std::move(bytes_),
                          std::move(attachment_)};
}

void
SnapshotReader::raw(void *p, std::size_t n)
{
    if (pos_ + n > rec_.bytes.size())
        fatal("SnapshotReader: record '%s' underflow (want %zu bytes, have "
              "%zu)",
              rec_.key.c_str(), n, rec_.bytes.size() - pos_);
    std::memcpy(p, rec_.bytes.data() + pos_, n);
    pos_ += n;
}

std::uint32_t
SnapshotReader::size()
{
    std::uint32_t n = 0;
    raw(&n, sizeof(n));
    // Every element takes at least one byte, so a larger count is a
    // corrupt record: reject it before anything is sized from it.
    if (n > remaining())
        fatal("SnapshotReader: record '%s' count %u overruns the record",
              rec_.key.c_str(), n);
    return n;
}

std::string
SnapshotReader::str()
{
    std::string s(size(), '\0');
    raw(s.data(), s.size());
    return s;
}

void
SnapshotReader::stats(StatGroup &stats)
{
    // Never erase from the maps: CachedCounter call sites hold raw Counter
    // pointers into the map nodes (which never move). Zero everything
    // already present, then load snapshot values into existing-or-new
    // entries.
    stats.resetAll();
    std::uint32_t nc = size();
    for (std::uint32_t i = 0; i < nc; ++i) {
        std::string name = str();
        std::uint64_t v;
        pod(v);
        stats.counter(name).set(v);
    }
    std::uint32_t ns = size();
    for (std::uint32_t i = 0; i < ns; ++i) {
        std::string name = str();
        std::uint64_t count;
        double sum, mn, mx;
        pod(count, sum, mn, mx);
        stats.scalar(name).load(count, sum, mn, mx);
    }
}

void
SnapshotReader::shapeMismatch(const char *what, std::uint32_t got,
                              std::size_t have) const
{
    fatal("snapshot record '%s': snapshot has %u %s, this machine has %zu — "
          "machine shapes differ",
          rec_.key.c_str(), got, what, have);
}

void
SnapshotReader::valueMismatch(const char *what, unsigned long long got,
                              unsigned long long have) const
{
    fatal("snapshot record '%s': %s differs (snapshot %#llx, this machine "
          "%#llx) — rebuild the clone exactly as the origin was built",
          rec_.key.c_str(), what, got, have);
}

const std::shared_ptr<const void> &
SnapshotReader::attachment() const
{
    return rec_.attachment;
}

Snapshottable::Snapshottable(MachineBase *machine, std::string key)
    : machine_(machine), key_(std::move(key))
{
    if (machine_)
        machine_->snapshottables_.push_back(this);
}

Snapshottable::~Snapshottable()
{
    if (machine_)
        std::erase(machine_->snapshottables_, this);
}

} // namespace kvmarm
