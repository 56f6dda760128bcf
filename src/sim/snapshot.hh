/**
 * @file
 * Machine snapshot/restore: one state description per component.
 *
 * A quiesced machine (no fiber suspended mid-run) can be captured into a
 * MachineSnapshot: every Snapshottable registered on the MachineBase
 * contributes one byte record. Restoring the snapshot into a freshly
 * constructed machine of the same shape replays those records in
 * registration order, then gives each component a rebind pass and a
 * verify pass.
 *
 * Each component lists its state once, in
 *
 *     template <class V> void visit(V &v);
 *
 * SnapshotWriter and SnapshotReader are the two visitors, so the same list
 * both writes the record (takeSnapshot) and reads it back
 * (restoreSnapshot); adding a field is one line. The primitives:
 *
 *   v.pod(a, b, ...)     trivially copyable values, verbatim (padding
 *                        bytes written as zero): scalars,
 *                        enums, bools, arrays and structs of those
 *   v.fixed(c, "what")   a container whose size the machine's shape fixes
 *                        (per-CPU banks, TLB geometry); its size is
 *                        recorded and a different size on read is fatal
 *   v.seq(c)             a variable-length container
 *   v.map(m)             a map (unordered or not), captured in sorted key
 *                        order so records never depend on hash layout
 *   v.stats(g)           a StatGroup
 *   v.same(x, "what")    an integer the restoring machine must already
 *                        hold (configuration a clone rebuilds before it
 *                        restores); a difference is fatal
 *
 * Container elements that have a visit() of their own are visited; all
 * others must be trivially copyable. Every fatal names the record key.
 *
 * Post-read fix-ups go in one of two places. A fix-up local to the
 * component (rebuild derived state, clear residency) is one
 * `if constexpr (V::kLoading)` branch at the end of visit(). Anything that
 * re-attaches callbacks or pointers into other components goes in
 * snapshotRebind(), which runs once every record has been read;
 * snapshotVerify() then proves nothing was left dangling. Components whose
 * two directions genuinely differ (PhysMem publishing and adopting its
 * COW image, Stage-2/Hyp tables replaying invariant events) override
 * snapshotSave()/snapshotLoad() and wrap that one step around visit().
 *
 * A Snapshottable registers itself on its MachineBase when constructed and
 * unregisters when destroyed, so registration order is construction order
 * — identical between a snapshot origin and any clone built the same way.
 *
 * Records are plain byte vectors plus an optional type-erased attachment:
 * a shared, immutable object the component wants to hand to its restored
 * twin without byte-copying (PhysMem uses this for the COW page image).
 * Snapshots are immutable once taken and safe to share across host threads;
 * every mutable structure a restore produces is owned by the restored
 * machine alone.
 */

#ifndef KVMARM_SIM_SNAPSHOT_HH
#define KVMARM_SIM_SNAPSHOT_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace kvmarm {

class MachineBase;
class StatGroup;

/** One component's captured state: a key for pairing, raw bytes, and an
 *  optional shared immutable attachment. */
struct SnapshotRecord
{
    std::string key;
    std::vector<std::uint8_t> bytes;
    std::shared_ptr<const void> attachment;
};

/** A full machine capture: one record per registered Snapshottable, in
 *  registration (== construction) order. Immutable once taken. */
struct MachineSnapshot
{
    std::vector<SnapshotRecord> records;

    /** Serialized payload size (record bytes only — shared attachments
     *  such as the COW page image are referenced, not copied, which is
     *  exactly why spawning clone VMs from a live job is cheap; bench
     *  fleet_pool reports this figure). */
    std::size_t
    totalBytes() const
    {
        std::size_t n = 0;
        for (const SnapshotRecord &rec : records)
            n += rec.bytes.size();
        return n;
    }
};

/** What SnapshotWriter and SnapshotReader share: how container elements
 *  are walked. @p Self provides raw(). */
template <class Self>
class SnapshotVisitor
{
  public:
    /** Trivially copyable values, verbatim. */
    template <typename... Ts>
    void
    pod(Ts &...vs)
    {
        static_assert((std::is_trivially_copyable_v<Ts> && ...));
        (value(vs), ...);
    }

  protected:
    /**
     * One trivially copyable object's bytes. A written record never
     * carries the object's padding: those bytes hold whatever the heap or
     * stack last left there, so two machines in identical states would
     * otherwise produce different records. Written as zero instead, which
     * keeps the record layout (and size) unchanged.
     */
    template <typename T>
    void
    value(T &x)
    {
#if defined(__has_builtin)
#if __has_builtin(__builtin_clear_padding)
        if constexpr (!Self::kLoading &&
                      !std::has_unique_object_representations_v<T>) {
            alignas(T) unsigned char copy[sizeof(T)];
            std::memcpy(copy, &x, sizeof(T));
            __builtin_clear_padding(reinterpret_cast<T *>(copy));
            self().raw(copy, sizeof(T));
            return;
        }
#endif
#endif
        self().raw(&x, sizeof(x));
    }

    template <typename T>
    void
    item(T &x)
    {
        if constexpr (requires { x.visit(self()); })
            x.visit(self());
        else
            pod(x);
    }

    /** A contiguous container's elements: visited, or one raw block. */
    template <typename C>
    void
    items(C &c)
    {
        using T = typename C::value_type;
        if constexpr (requires(T &x) { x.visit(self()); }) {
            for (T &x : c)
                x.visit(self());
        } else if constexpr (Self::kLoading ||
                             std::has_unique_object_representations_v<T>) {
            static_assert(std::is_trivially_copyable_v<T>);
            if (!c.empty()) // an empty container's data() may be null
                self().raw(c.data(), c.size() * sizeof(T));
        } else {
            static_assert(std::is_trivially_copyable_v<T>);
            for (T &x : c)
                value(x);
        }
    }

  private:
    Self &self() { return static_cast<Self &>(*this); }
};

/** Accumulates one component's snapshot record. */
class SnapshotWriter : public SnapshotVisitor<SnapshotWriter>
{
  public:
    static constexpr bool kLoading = false;

    template <typename C>
    void
    fixed(C &c, const char *)
    {
        seq(c);
    }

    template <typename C>
    void
    seq(C &c)
    {
        size(c.size());
        items(c);
    }

    template <typename M>
    void
    map(M &m)
    {
        std::vector<typename M::value_type *> entries;
        entries.reserve(m.size());
        for (auto &e : m)
            entries.push_back(&e);
        std::sort(entries.begin(), entries.end(),
                  [](const auto *a, const auto *b) {
                      return a->first < b->first;
                  });
        size(entries.size());
        for (auto *e : entries) {
            item(e->first);
            item(e->second);
        }
    }

    template <typename T>
    void
    same(const T &v, const char *)
    {
        static_assert(std::is_integral_v<T>);
        raw(&v, sizeof(v));
    }

    void stats(const StatGroup &stats);

    /** Attach a shared immutable object to this record (at most one). */
    void attach(std::shared_ptr<const void> a);

    /** Move the accumulated record out (MachineBase::takeSnapshot). */
    SnapshotRecord finish(std::string key);

  private:
    friend class SnapshotVisitor<SnapshotWriter>;

    void raw(const void *p, std::size_t n);
    void size(std::size_t n);
    void str(const std::string &s);

    std::vector<std::uint8_t> bytes_;
    std::shared_ptr<const void> attachment_;
    bool hasAttachment_ = false;
};

/** Replays one component's snapshot record. Reads must consume the record
 *  exactly; MachineBase checks done() after each component. */
class SnapshotReader : public SnapshotVisitor<SnapshotReader>
{
  public:
    static constexpr bool kLoading = true;

    explicit SnapshotReader(const SnapshotRecord &rec) : rec_(rec) {}

    template <typename C>
    void
    fixed(C &c, const char *what)
    {
        std::uint32_t n = size();
        if (n != c.size())
            shapeMismatch(what, n, c.size());
        items(c);
    }

    template <typename C>
    void
    seq(C &c)
    {
        std::uint32_t n = size();
        c.clear();
        c.resize(n);
        items(c);
    }

    template <typename M>
    void
    map(M &m)
    {
        m.clear();
        std::uint32_t n = size();
        for (std::uint32_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            item(k);
            item(v);
            m.emplace(k, std::move(v));
        }
    }

    template <typename T>
    void
    same(const T &expect, const char *what)
    {
        static_assert(std::is_integral_v<T>);
        T got{};
        raw(&got, sizeof(got));
        if (got != expect)
            valueMismatch(what, static_cast<unsigned long long>(got),
                          static_cast<unsigned long long>(expect));
    }

    void stats(StatGroup &stats);

    /** The record's shared attachment (null if none was written). */
    const std::shared_ptr<const void> &attachment() const;

    /** True when every byte of the record has been consumed. */
    bool done() const { return pos_ == rec_.bytes.size(); }

    std::size_t remaining() const { return rec_.bytes.size() - pos_; }

  private:
    friend class SnapshotVisitor<SnapshotReader>;

    void raw(void *p, std::size_t n);
    std::uint32_t size();
    std::string str();
    [[noreturn]] void shapeMismatch(const char *what, std::uint32_t got,
                                    std::size_t have) const;
    [[noreturn]] void valueMismatch(const char *what, unsigned long long got,
                                    unsigned long long have) const;

    const SnapshotRecord &rec_;
    std::size_t pos_ = 0;
};

/**
 * A component that participates in machine snapshots. Construction
 * registers it on @p machine under @p key (null machine: a standalone
 * component, e.g. in a unit test, that is driven by hand); destruction
 * unregisters it.
 */
class Snapshottable
{
  public:
    Snapshottable(MachineBase *machine, std::string key);
    virtual ~Snapshottable();

    Snapshottable(const Snapshottable &) = delete;
    Snapshottable &operator=(const Snapshottable &) = delete;

    /** Stable identifier, checked against the record at restore. */
    const std::string &snapshotKey() const { return key_; }

    /** Write the record; normally `{ visit(w); }`. Non-const: PhysMem's
     *  save mutates it into a COW client of the image it publishes. */
    virtual void snapshotSave(SnapshotWriter &w) = 0;

    /** Read the record back; normally `{ visit(r); }`. Pointers and
     *  callbacks stay unresolved until snapshotRebind(). */
    virtual void snapshotLoad(SnapshotReader &r) = 0;

    /** Re-attach callbacks/pointers after every component restored. */
    virtual void snapshotRebind() {}

    /** Post-rebind consistency checks; fatal() on anything dangling. */
    virtual void snapshotVerify() {}

  private:
    MachineBase *machine_;
    std::string key_;
};

} // namespace kvmarm

#endif // KVMARM_SIM_SNAPSHOT_HH
