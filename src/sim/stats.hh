/**
 * @file
 * Declared statistics: named event counters with a table-style dump, in
 * the spirit of gem5's stats package and of Linux KVM's per-vCPU stats
 * (plain fields described once by a descriptor table).
 *
 * Every counter name is declared once, in kStatNames (sim/stat_names.hh).
 * A StatGroup holds one slot per declared name plus a bitmap of the slots
 * ever bumped, so it is trivially copyable and snapshots with v.pod. A call
 * site names its counter with a string literal,
 *
 *     vcpu.stats.inc("exit.fp");
 *
 * which StatId resolves to its slot at compile time: an undeclared name
 * does not compile, and a bump is an add and an or. Families composed from
 * an enum (trap.<ec>, exit.<reason>, ...) are id arrays built by
 * statFamily().
 */

#ifndef KVMARM_SIM_STATS_HH
#define KVMARM_SIM_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "sim/stat_names.hh"

namespace kvmarm {

inline constexpr std::size_t kNumStats = std::size(kStatNames);

/** dump() walks kStatNames in order, so the table must be in the order
 *  std::map<std::string, ...> kept the names it replaced. */
consteval bool
statNamesSortedAndUnique()
{
    for (std::size_t i = 1; i < kNumStats; ++i) {
        if (!(kStatNames[i - 1] < kStatNames[i]))
            return false;
    }
    return true;
}
static_assert(statNamesSortedAndUnique(),
              "kStatNames must be sorted byte-wise and free of duplicates");

namespace detail {
consteval std::size_t
statIndex(std::string_view prefix, std::string_view suffix)
{
    for (std::size_t i = 0; i < kNumStats; ++i) {
        std::string_view n = kStatNames[i];
        if (n.size() == prefix.size() + suffix.size() &&
            n.starts_with(prefix) && n.ends_with(suffix))
            return i;
    }
    throw "undeclared stat name: add it to kStatNames (sim/stat_names.hh)";
}
} // namespace detail

/** A declared counter: its slot in kStatNames, resolved at compile time. */
class StatId
{
  public:
    /** The counter named @p name; an undeclared name fails to compile. */
    consteval StatId(const char *name) : StatId(std::string_view{}, name) {}

    /** The counter named @p prefix + @p suffix (composed families). */
    consteval StatId(std::string_view prefix, std::string_view suffix)
        : index_(detail::statIndex(prefix, suffix))
    {
    }

    constexpr std::size_t index() const { return index_; }
    constexpr std::string_view name() const { return kStatNames[index_]; }

  private:
    std::size_t index_;
};

namespace detail {
template <class NameFn, std::size_t... I>
consteval std::array<StatId, sizeof...(I)>
statFamily(std::string_view prefix, NameFn name, std::index_sequence<I...>)
{
    return {StatId(prefix, name(I))...};
}
} // namespace detail

/**
 * The ids of a family of counters indexed by an enum: entry i is the
 * counter named @p prefix + @p name(i). A member whose name is not
 * declared fails to compile.
 */
template <std::size_t N, class NameFn>
consteval std::array<StatId, N>
statFamily(std::string_view prefix, NameFn name)
{
    return detail::statFamily(prefix, name, std::make_index_sequence<N>{});
}

/**
 * One owner's counters (a CPU, a VCPU, a bare-metal hypervisor): a slot
 * per declared name. Named hierarchically at dump time ("cpu0.trap.wfi").
 */
class StatGroup
{
  public:
    /** Bump a counter by @p n. A bump by 0 still lists it in dump(). */
    void
    inc(StatId id, std::uint64_t n = 1)
    {
        const std::size_t i = id.index();
        values_[i] += n;
        touched_[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    /** Read a counter by name; 0 if never bumped. A name that is not in
     *  kStatNames is a misuse and throws FatalError. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Zero every counter; a bumped counter stays listed in dump(). */
    void resetAll() { values_.fill(0); }

    /** Dump every bumped counter, sorted by name, one per line. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::array<std::uint64_t, kNumStats> values_{};
    std::array<std::uint64_t, (kNumStats + 63) / 64> touched_{};
};

} // namespace kvmarm

#endif // KVMARM_SIM_STATS_HH
