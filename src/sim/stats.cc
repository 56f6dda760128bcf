#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>

#include "sim/logging.hh"

namespace kvmarm {

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    const auto *end = std::end(kStatNames);
    const auto *it = std::lower_bound(std::begin(kStatNames), end, name);
    if (it == end || *it != name)
        fatal("StatGroup::counterValue: '%s' is not a declared counter "
              "(sim/stat_names.hh)",
              name.c_str());
    return values_[static_cast<std::size_t>(it - std::begin(kStatNames))];
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    for (std::size_t i = 0; i < kNumStats; ++i) {
        if (!(touched_[i / 64] >> (i % 64) & 1))
            continue;
        os << std::left << std::setw(48) << (prefix + std::string(kStatNames[i]))
           << values_[i] << "\n";
    }
}

} // namespace kvmarm
