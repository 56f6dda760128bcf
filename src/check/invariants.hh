/**
 * @file
 * Split-mode invariant checker (paper §3): a pluggable rule engine that
 * audits the architectural invariants KVM/ARM's correctness rests on while
 * the simulation runs.
 *
 * The paper's split-mode design is only sound if (1) Hyp-only state is
 * touched exclusively from Hyp mode (§3.2), (2) the world switch moves
 * *all* of Table 1's state symmetrically, (3) Stage-2 translation isolates
 * each VM's IPA space and the protected Hyp region (§3.3), (4) guest entry
 * programs the full KVM/ARM trap configuration, (5) the VGIC list
 * registers stay consistent (§3.5), and (6) inter-VM ring messages keep
 * a gapless, monotonic order. The simulator executes those paths;
 * this engine *checks* them, so a silent save/restore asymmetry or a
 * cross-VM Stage-2 mapping fails loudly instead of corrupting results.
 *
 * Engines are sharded per machine (DESIGN.md §4.3): every `MachineBase`
 * owns a private `InvariantEngine` instance holding its own rule shadow
 * state, violation log and event counter. A machine is single-threaded by
 * construction (§4.7), so a machine's engine runs plain single-threaded
 * code — the checked hot path takes no mutex and needs no atomics beyond
 * the per-engine mode flag, and a fleet of checked VMs never serializes
 * on the checker.
 *
 * What is process-wide is not an engine but a few free functions over
 * the registry every engine joins: the KVMARM_CHECK environment
 * selection, the mode fan-out (setProcessMode()), resetAll() and the
 * epoch window (beginEpoch()/aggregateEpoch()). Only that registry takes
 * a mutex, and only on those cold paths.
 *
 * Instrumented code reports events through the KVMARM_CHECK_ON() macro,
 * which costs a pointer load plus one branch on the engine's mode flag
 * when the runtime mode is Off — the only way to turn checking off. No
 * event ever charges simulated cycles: checking is invisible to the cost
 * model.
 *
 * Runtime modes: Off (default), Log (record + warn), Enforce (record +
 * throw FatalError). The KVMARM_CHECK environment variable ("off", "log",
 * "enforce") selects the initial process mode, letting CI run the entire
 * test suite under enforcement without code changes; every engine starts
 * in the process mode current at its construction.
 */

#ifndef KVMARM_CHECK_INVARIANTS_HH
#define KVMARM_CHECK_INVARIANTS_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arm/hyp_state.hh"
#include "arm/modes.hh"
#include "sim/types.hh"

namespace kvmarm::arm {
struct VgicBank;
} // namespace kvmarm::arm

namespace kvmarm::check {

/** Runtime checking mode. */
enum class CheckMode
{
    Off,     //!< events are dropped at the hook site
    Log,     //!< violations are recorded; the first few are warn()ed
    Enforce, //!< violations are recorded and throw FatalError
};

/** Direction of a world switch. */
enum class SwitchDir
{
    ToVm,
    ToHost,
};

/** State groups of Table 1 moved by the world switch. */
enum class StateClass
{
    Gp,    //!< general-purpose registers (all banked modes)
    Ctrl,  //!< CP15 configuration registers
    Fpu,   //!< VFP/NEON data + control registers
    Vgic,  //!< VGIC control + list registers
    Timer, //!< architected timer control registers
};

/** Number of StateClass values (for per-class bitmasks). */
inline constexpr unsigned kNumStateClasses =
    static_cast<unsigned>(StateClass::Timer) + 1;

/** What a world-switch state transfer did. */
enum class Xfer
{
    SaveHost,     //!< host copy parked (toVm step 1/4)
    RestoreGuest, //!< guest copy loaded (toVm step 5/9)
    SaveGuest,    //!< guest copy captured (toHost)
    RestoreHost,  //!< host copy reloaded (toHost)
};

/** Number of Xfer values (for per-kind tables). */
inline constexpr unsigned kNumXfers =
    static_cast<unsigned>(Xfer::RestoreHost) + 1;

const char *switchDirName(SwitchDir d);
const char *stateClassName(StateClass c);
const char *xferName(Xfer k);

/** One recorded invariant violation. */
struct Violation
{
    std::string rule;   //!< name of the rule that fired
    std::string detail; //!< human-readable diagnosis
};

/** Result of one live aggregation window (beginEpoch() /
 *  aggregateEpoch(), DESIGN.md §4.11). */
struct EpochReport
{
    std::uint64_t epoch = 0;    //!< id returned by the pairing beginEpoch()
    std::uint64_t violations = 0; //!< published violations since beginEpoch()
    std::size_t engines = 0;    //!< live engines sampled
};

/// @name Event payloads delivered to rules
/// @{

/** Software access to a Hyp-only configuration register. */
struct HypAccessEvent
{
    CpuId cpu;
    arm::Mode mode;  //!< CPU mode at the access
    const char *reg; //!< register (group) name, e.g. "hcr", "httbr"
};

/** A CPU mode transition. */
struct ModeChangeEvent
{
    const void *domain; //!< owning machine (disambiguates CPU ids)
    CpuId cpu;
    arm::Mode from;
    arm::Mode to;
    bool stage2On; //!< HCR.VM at the moment of the transition
};

/** World-switch entry/exit. @c hyp is only valid on end events. */
struct WorldSwitchEvent
{
    const void *domain;
    CpuId cpu;
    SwitchDir dir;
    bool begin;
    const arm::HypState *hyp; //!< Hyp state snapshot (end events)
};

/** One Table 1 state group moved by the world switch. */
struct StateTransferEvent
{
    const void *domain;
    CpuId cpu;
    StateClass cls;
    Xfer kind;
};

/** A Stage-2 mapping installed or removed. */
struct Stage2Event
{
    const void *domain; //!< owning host Mm (PA namespace)
    std::uint16_t vmid;
    Addr ipa;
    Addr pa;
    bool device; //!< device (MMIO passthrough) mapping
    bool map;    //!< true = map, false = unmap
};

/** A physical page entering/leaving the protected (hypervisor) set. */
struct PageGuardEvent
{
    const void *domain;
    Addr pa;
    const char *tag; //!< why it is protected, e.g. "hyp-table"
    bool protect;
};

/** A VGIC list register was written. */
struct VgicLrEvent
{
    CpuId cpu;
    unsigned idx;                  //!< list register index
    const arm::VgicBank *bank;     //!< full per-CPU VGIC bank
};

/** The VGIC maintenance interrupt is about to be raised. */
struct MaintenanceEvent
{
    CpuId cpu;
    const arm::VgicBank *bank;
};

/** Inter-VM ring activity: a doorbell MMIO send or a message delivery. */
struct RingEvent
{
    const void *domain; //!< owning machine (disambiguates ring names)
    CpuId cpu;
    const char *ring; //!< channel name
    bool doorbell;    //!< true = doorbell (send); false = delivery
    std::uint64_t seq; //!< per-direction message sequence number
    Cycles cycle;      //!< send cycle (doorbell) / deliver cycle
    std::uint32_t ringIdx; //!< avail index (doorbell) / used index (deliver)
};
/// @}

class InvariantEngine;

/**
 * One pluggable invariant rule. Override the hooks the rule cares about;
 * report violations through InvariantEngine::report(). Rules keep their
 * own shadow state and must clear it in reset(). Each engine instance
 * owns a private set of rule instances, so one machine's shadow state can
 * never alias another's.
 *
 * The base-class hooks are no-ops that also tell the engine the rule does
 * not handle that hook: the engine then stops sending it events of that
 * kind (DESIGN.md §4.3). An override therefore must not call the base
 * hook.
 */
class InvariantRule
{
  public:
    virtual ~InvariantRule() = default;

    virtual const char *name() const = 0;

    /** Drop all shadow state (engine reset between test cases). */
    virtual void reset() {}

    virtual void
    onHypAccess(InvariantEngine &, const HypAccessEvent &)
    {
        unhandled_ = true;
    }
    virtual void
    onModeChange(InvariantEngine &, const ModeChangeEvent &)
    {
        unhandled_ = true;
    }
    virtual void
    onWorldSwitch(InvariantEngine &, const WorldSwitchEvent &)
    {
        unhandled_ = true;
    }
    virtual void
    onStateTransfer(InvariantEngine &, const StateTransferEvent &)
    {
        unhandled_ = true;
    }
    virtual void
    onStage2Update(InvariantEngine &, const Stage2Event &)
    {
        unhandled_ = true;
    }
    virtual void
    onPageGuard(InvariantEngine &, const PageGuardEvent &)
    {
        unhandled_ = true;
    }
    virtual void
    onVgicLr(InvariantEngine &, const VgicLrEvent &)
    {
        unhandled_ = true;
    }
    virtual void
    onMaintenance(InvariantEngine &, const MaintenanceEvent &)
    {
        unhandled_ = true;
    }
    virtual void
    onRing(InvariantEngine &, const RingEvent &)
    {
        unhandled_ = true;
    }

  private:
    friend class InvariantEngine;

    /** Set by a base-class hook; the engine reads and clears it after
     *  each call. */
    bool unhandled_ = false;
};

/**
 * An invariant engine: a set of rules, their shadow state, a violation
 * log and an event counter. Instrumented code funnels events in through
 * the entry points below; the engine fans each one out to the rules that
 * handle its hook. It keeps one subscriber list per hook: every rule
 * starts on every list and leaves a list the first time its base-class
 * no-op runs, so an event costs one virtual call per rule that checks it.
 *
 * An engine belongs to one MachineBase (or to a test that drives it
 * directly) and is fed only from that owner's single execution thread,
 * so every entry point is plain single-threaded code: no mutex, and no
 * atomics beyond the mode flag and the epoch counters. Every engine
 * registers itself in a process registry so the process-wide functions
 * below (setProcessMode(), resetAll(), the epoch window) can reach it.
 * The registry is touched only on construction/destruction and from
 * those cold paths, never by an event entry point.
 */
class InvariantEngine
{
  public:
    /** Registers the engine and starts it in the current process mode. */
    InvariantEngine();
    ~InvariantEngine();

    InvariantEngine(const InvariantEngine &) = delete;
    InvariantEngine &operator=(const InvariantEngine &) = delete;

    CheckMode mode() const { return mode_.load(std::memory_order_relaxed); }

    /** Set this engine's mode only (setProcessMode() sets every engine's). */
    void setMode(CheckMode m);

    /** True when this engine wants events (mode != Off, rules present) —
     *  the per-engine fast-path gate consulted by KVMARM_CHECK_ON. */
    bool
    active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Register an additional rule (the six built-in rules are installed
     *  by the constructor) and put every rule back on every hook's
     *  subscriber list. */
    void addRule(std::unique_ptr<InvariantRule> rule);

    /** Clear recorded violations, the event counter and every rule's
     *  shadow state. The subscriber lists are kept. */
    void reset();

    /// @name Results
    /// @{
    const std::vector<Violation> &violations() const { return violations_; }

    /** Number of recorded violations. */
    std::size_t violationCount() const { return violations_.size(); }
    /** Number of violations attributed to @p rule. */
    std::size_t violationCount(const std::string &rule) const;

    /** Events observed (post-gate, i.e. in Log or Enforce mode only). */
    std::uint64_t eventCount() const { return events_; }
    /// @}

    /// @name Epoch counters (live aggregation without stop-the-world)
    ///
    /// Every report() bumps the engine's atomic *live* counter, and each
    /// machine *publishes* (live → published, a lock-free store on the
    /// machine's own thread) at its quiesce boundaries — every
    /// MachineBase::run() exit and snapshot restore. aggregateEpoch()
    /// samples published counters only, so aggregation never reads state
    /// a machine thread is mutating and no machine ever stops for it. An
    /// engine that dies retires its live count into a process accumulator
    /// so completed fleet jobs keep counting. The sampled total is
    /// monotonic: published never exceeds live, and retirement only
    /// converts published values into (larger-or-equal) live ones.
    /// @{

    /** Snapshot the live violation counter into the published counter.
     *  Lock-free; called on the owning machine's thread at a quiesce
     *  boundary (MachineBase::publishCheckEpoch routes here). */
    void publishEpoch();

    /** The published violation counter. */
    std::uint64_t
    publishedCount() const
    {
        return publishedViolations_.load(std::memory_order_acquire);
    }
    /// @}

    /** Log mode warns about this many violations since the last reset();
     *  later ones are recorded silently after a one-line notice. */
    static constexpr std::size_t kLogPrintedViolations = 16;

    /** Record a violation (called by rules). Log mode warns about the
     *  first kLogPrintedViolations; Enforce mode throws FatalError after
     *  recording. */
    void report(const InvariantRule &rule, std::string detail);

    /// @name Event entry points (hook sites call these via KVMARM_CHECK_ON)
    /// @{
    void hypAccess(CpuId cpu, arm::Mode mode, const char *reg);
    void modeChange(const void *domain, CpuId cpu, arm::Mode from,
                    arm::Mode to, bool stage2_on);
    void worldSwitchBegin(const void *domain, CpuId cpu, SwitchDir dir);
    void worldSwitchEnd(const void *domain, CpuId cpu, SwitchDir dir,
                        const arm::HypState &hyp);
    void stateTransfer(const void *domain, CpuId cpu, StateClass cls,
                       Xfer kind);
    void stage2Map(const void *domain, std::uint16_t vmid, Addr ipa, Addr pa,
                   bool device);
    void stage2Unmap(const void *domain, std::uint16_t vmid, Addr ipa,
                     Addr pa);
    void protectPage(const void *domain, Addr pa, const char *tag);
    void unprotectPage(const void *domain, Addr pa);
    void vgicLrWrite(CpuId cpu, unsigned idx, const arm::VgicBank &bank);
    void maintenanceIrq(CpuId cpu, const arm::VgicBank &bank);
    void ringDoorbell(const void *domain, CpuId cpu, const char *ring,
                      std::uint64_t seq, Cycles cycle, std::uint32_t availIdx);
    void ringDeliver(const void *domain, CpuId cpu, const char *ring,
                     std::uint64_t seq, Cycles cycle, std::uint32_t usedIdx);
    /// @}

  private:
    /** The rule hooks, one subscriber list each. */
    enum Hook : unsigned
    {
        kHypAccess,
        kModeChange,
        kWorldSwitch,
        kStateTransfer,
        kStage2Update,
        kPageGuard,
        kVgicLr,
        kMaintenance,
        kRing,
        kNumHooks,
    };

    void refreshGate();

    /** Put every rule on every hook's subscriber list, in rule order. */
    void subscribeAll();

    /** Call hook @p On of every rule subscribed to @p hook, dropping the
     *  rules whose base-class no-op ran. */
    template <auto On, typename Event>
    void fanOut(Hook hook, const Event &ev);

    std::atomic<CheckMode> mode_{CheckMode::Off};
    std::atomic<bool> active_{false};
    std::vector<std::unique_ptr<InvariantRule>> rules_;
    std::array<std::vector<InvariantRule *>, kNumHooks> subscribers_;
    std::vector<Violation> violations_;
    std::uint64_t events_ = 0;
    /** Epoch counters: live is bumped by every report(); published is
     *  the copy aggregateEpoch() reads, refreshed by publishEpoch(). */
    std::atomic<std::uint64_t> liveViolations_{0};
    std::atomic<std::uint64_t> publishedViolations_{0};
};

/// @name Process-wide checking state
///
/// The process mode starts from the KVMARM_CHECK environment variable
/// ("off", "log" or "enforce"; anything else warns and means off). Every
/// engine starts in it, and setProcessMode() changes it for every live
/// engine at once. Mode changes are safe while machines run (the mode
/// flags are atomics); resetAll() writes engine state directly, so
/// callers quiesce every machine first.
/// @{

/** The mode new engines start in. */
CheckMode processMode();

/** Set the process mode and every live engine's mode. */
void setProcessMode(CheckMode m);

/** reset() every live engine, drop the retired-violation history and
 *  close any epoch window. Quiesced-only. */
void resetAll();

/** Open an aggregation window (DESIGN.md §4.11): record the current
 *  published total as the baseline and return the new epoch id. */
std::uint64_t beginEpoch();

/** Sample the published total (no stop-the-world; safe while machines
 *  run) and report the delta since beginEpoch(). With no beginEpoch()
 *  yet, the delta is since process start (or the last resetAll()). */
EpochReport aggregateEpoch();
/// @}

/** RAII mode switch for tests: resets every engine and sets the process
 *  mode, then restores Off and resets again on destruction. Engines
 *  created before the scope follow along; engines created inside it
 *  start in its mode. */
class ScopedCheckMode
{
  public:
    explicit ScopedCheckMode(CheckMode m)
    {
        resetAll();
        setProcessMode(m);
    }
    ~ScopedCheckMode()
    {
        setProcessMode(CheckMode::Off);
        resetAll();
    }
    ScopedCheckMode(const ScopedCheckMode &) = delete;
    ScopedCheckMode &operator=(const ScopedCheckMode &) = delete;
};

} // namespace kvmarm::check

/**
 * Hook macro used at instrumentation sites: KVMARM_CHECK_ON(eng, call)
 * delivers to a specific engine instance — every hook site routes through
 * its owning machine's engine this way:
 * KVMARM_CHECK_ON(ck, stateTransfer(...)). A null engine (a machine built
 * where no check layer is linked, or a standalone host::Mm) drops the
 * event. Arguments are not evaluated unless the engine is active.
 */
#define KVMARM_CHECK_ON(eng, call)                                          \
    do {                                                                    \
        ::kvmarm::check::InvariantEngine *kvmarm_check_e_ = (eng);          \
        if (kvmarm_check_e_ && kvmarm_check_e_->active())                   \
            kvmarm_check_e_->call;                                          \
    } while (0)

#endif // KVMARM_CHECK_INVARIANTS_HH
