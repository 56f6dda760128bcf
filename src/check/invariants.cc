#include "check/invariants.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "check/rules.hh"
#include "sim/logging.hh"
#include "sim/machine_base.hh"
#include "sim/thread_annotations.hh"

namespace kvmarm::check {

namespace {

/** The initial process mode: the KVMARM_CHECK environment variable. */
CheckMode
modeFromEnv()
{
    // Read once during static initialization, before any worker thread
    // starts; nothing calls setenv.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("KVMARM_CHECK");
    if (!env || !std::strcmp(env, "off"))
        return CheckMode::Off;
    if (!std::strcmp(env, "log"))
        return CheckMode::Log;
    if (!std::strcmp(env, "enforce"))
        return CheckMode::Enforce;
    warn("KVMARM_CHECK=%s not recognised (off|log|enforce)", env);
    return CheckMode::Off;
}

/**
 * Process registry of live engines. setProcessMode(), resetAll() and the
 * epoch window walk it; engines join in their constructor and leave in
 * their destructor. The mutex guards only those cold paths — no event
 * entry point ever touches it. resetAll() writes engine state directly,
 * so it must not run concurrently with machine execution (callers quiesce
 * the fleet first; tests and benches naturally do).
 */
Mutex gRegistryMutex;
std::vector<InvariantEngine *> gRegistry KVMARM_GUARDED_BY(gRegistryMutex);
CheckMode gProcessMode KVMARM_GUARDED_BY(gRegistryMutex) = modeFromEnv();

/** Published violations of engines that have died (a fleet job's machine
 *  retires its engine with it); folded into every epoch sample so
 *  completed jobs keep counting. */
std::uint64_t gRetiredViolations KVMARM_GUARDED_BY(gRegistryMutex) = 0;

/** Epoch window bookkeeping (beginEpoch()/aggregateEpoch()). */
std::uint64_t gEpochId KVMARM_GUARDED_BY(gRegistryMutex) = 0;
std::uint64_t gEpochBaseline KVMARM_GUARDED_BY(gRegistryMutex) = 0;

/** Sum of published violation counters across the live registry plus the
 *  retired accumulator. Never reads an engine's violation log, only its
 *  published atomic, so it is safe while machines run. */
std::uint64_t
samplePublished() KVMARM_REQUIRES(gRegistryMutex)
{
    std::uint64_t total = gRetiredViolations;
    for (const InvariantEngine *eng : gRegistry)
        total += eng->publishedCount();
    return total;
}

InvariantEngine *
createMachineEngine()
{
    return new InvariantEngine;
}

void
destroyMachineEngine(InvariantEngine *eng)
{
    delete eng;
}

void
publishMachineEngine(InvariantEngine *eng)
{
    eng->publishEpoch();
}

/** Hand MachineBase the means to create per-machine engines. */
const bool gEagerInit =
    (MachineBase::registerCheckEngineFactory(createMachineEngine,
                                             destroyMachineEngine,
                                             publishMachineEngine),
     true);

} // namespace

CheckMode
processMode()
{
    MutexLock lock(gRegistryMutex);
    return gProcessMode;
}

void
setProcessMode(CheckMode m)
{
    // The mode flags are atomics, so this is safe even while machines
    // run on fleet worker threads.
    MutexLock lock(gRegistryMutex);
    gProcessMode = m;
    for (InvariantEngine *eng : gRegistry)
        eng->setMode(m);
}

void
resetAll()
{
    MutexLock lock(gRegistryMutex);
    for (InvariantEngine *eng : gRegistry)
        eng->reset();
    gRetiredViolations = 0;
    gEpochId = 0;
    gEpochBaseline = 0;
}

std::uint64_t
beginEpoch()
{
    MutexLock lock(gRegistryMutex);
    gEpochBaseline = samplePublished();
    return ++gEpochId;
}

EpochReport
aggregateEpoch()
{
    MutexLock lock(gRegistryMutex);
    EpochReport rep;
    rep.epoch = gEpochId;
    rep.violations = samplePublished() - gEpochBaseline;
    rep.engines = gRegistry.size();
    return rep;
}

const char *
switchDirName(SwitchDir d)
{
    return d == SwitchDir::ToVm ? "toVm" : "toHost";
}

const char *
stateClassName(StateClass c)
{
    switch (c) {
      case StateClass::Gp: return "gp";
      case StateClass::Ctrl: return "ctrl";
      case StateClass::Fpu: return "fpu";
      case StateClass::Vgic: return "vgic";
      case StateClass::Timer: return "timer";
    }
    return "?";
}

const char *
xferName(Xfer k)
{
    switch (k) {
      case Xfer::SaveHost: return "save-host";
      case Xfer::RestoreGuest: return "restore-guest";
      case Xfer::SaveGuest: return "save-guest";
      case Xfer::RestoreHost: return "restore-host";
    }
    return "?";
}

InvariantEngine::InvariantEngine()
{
    for (auto &rule : builtinRules())
        rules_.push_back(std::move(rule));
    subscribeAll();
    // Join and take the process mode in one critical section, so a
    // setProcessMode() racing this constructor either finds the engine
    // registered or has already updated the mode it starts in.
    MutexLock lock(gRegistryMutex);
    gRegistry.push_back(this);
    setMode(gProcessMode);
}

InvariantEngine::~InvariantEngine()
{
    MutexLock lock(gRegistryMutex);
    gRegistry.erase(std::remove(gRegistry.begin(), gRegistry.end(), this),
                    gRegistry.end());
    // Retire the *live* count (>= published): a dying machine is quiesced
    // by definition, so the final value is exact and the epoch sample
    // stays monotonic — the engine's contribution only ever grows when it
    // switches from the registry term to the retired term.
    gRetiredViolations += liveViolations_.load(std::memory_order_relaxed);
}

void
InvariantEngine::subscribeAll()
{
    for (std::vector<InvariantRule *> &subs : subscribers_) {
        subs.clear();
        for (auto &rule : rules_)
            subs.push_back(rule.get());
    }
}

template <auto On, typename Event>
void
InvariantEngine::fanOut(Hook hook, const Event &ev)
{
    std::vector<InvariantRule *> &subs = subscribers_[hook];
    for (std::size_t i = 0; i < subs.size();) {
        InvariantRule *rule = subs[i];
        (rule->*On)(*this, ev);
        if (rule->unhandled_) {
            // The base-class no-op ran: the rule does not check this hook.
            rule->unhandled_ = false;
            subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

void
InvariantEngine::refreshGate()
{
    active_.store(mode() != CheckMode::Off && !rules_.empty(),
                  std::memory_order_relaxed);
}

void
InvariantEngine::setMode(CheckMode m)
{
    mode_.store(m, std::memory_order_relaxed);
    refreshGate();
}

void
InvariantEngine::addRule(std::unique_ptr<InvariantRule> rule)
{
    rules_.push_back(std::move(rule));
    subscribeAll();
    refreshGate();
}

void
InvariantEngine::reset()
{
    violations_.clear();
    events_ = 0;
    liveViolations_.store(0, std::memory_order_relaxed);
    publishedViolations_.store(0, std::memory_order_relaxed);
    for (auto &rule : rules_)
        rule->reset();
}

std::size_t
InvariantEngine::violationCount(const std::string &rule) const
{
    std::size_t n = 0;
    for (const Violation &v : violations_)
        n += v.rule == rule;
    return n;
}

void
InvariantEngine::publishEpoch()
{
    // Release pairs with the acquire in publishedCount(): a sampler that
    // sees the new published value also sees everything the machine did
    // before its quiesce boundary.
    publishedViolations_.store(liveViolations_.load(std::memory_order_relaxed),
                               std::memory_order_release);
}

void
InvariantEngine::report(const InvariantRule &rule, std::string detail)
{
    violations_.push_back(Violation{rule.name(), std::move(detail)});
    liveViolations_.fetch_add(1, std::memory_order_relaxed);
    const Violation &v = violations_.back();
    if (mode() == CheckMode::Enforce) {
        fatal("invariant violation [%s]: %s", v.rule.c_str(),
              v.detail.c_str());
    }
    // A flood would bury the first violation: print the first few since
    // the last reset(), then only count.
    const std::size_t n = violations_.size();
    if (n <= kLogPrintedViolations) {
        warn("invariant violation [%s]: %s", v.rule.c_str(),
             v.detail.c_str());
    } else if (n == kLogPrintedViolations + 1) {
        warn("invariant engine: more than %zu violations; further ones are "
             "counted (violationCount()) but not printed",
             kLogPrintedViolations);
    }
}

void
InvariantEngine::hypAccess(CpuId cpu, arm::Mode mode, const char *reg)
{
    ++events_;
    HypAccessEvent ev{cpu, mode, reg};
    fanOut<&InvariantRule::onHypAccess>(kHypAccess, ev);
}

void
InvariantEngine::modeChange(const void *domain, CpuId cpu, arm::Mode from,
                            arm::Mode to, bool stage2_on)
{
    ++events_;
    ModeChangeEvent ev{domain, cpu, from, to, stage2_on};
    fanOut<&InvariantRule::onModeChange>(kModeChange, ev);
}

void
InvariantEngine::worldSwitchBegin(const void *domain, CpuId cpu,
                                  SwitchDir dir)
{
    ++events_;
    WorldSwitchEvent ev{domain, cpu, dir, true, nullptr};
    fanOut<&InvariantRule::onWorldSwitch>(kWorldSwitch, ev);
}

void
InvariantEngine::worldSwitchEnd(const void *domain, CpuId cpu, SwitchDir dir,
                                const arm::HypState &hyp)
{
    ++events_;
    WorldSwitchEvent ev{domain, cpu, dir, false, &hyp};
    fanOut<&InvariantRule::onWorldSwitch>(kWorldSwitch, ev);
}

void
InvariantEngine::stateTransfer(const void *domain, CpuId cpu, StateClass cls,
                               Xfer kind)
{
    ++events_;
    StateTransferEvent ev{domain, cpu, cls, kind};
    fanOut<&InvariantRule::onStateTransfer>(kStateTransfer, ev);
}

void
InvariantEngine::stage2Map(const void *domain, std::uint16_t vmid, Addr ipa,
                           Addr pa, bool device)
{
    ++events_;
    Stage2Event ev{domain, vmid, ipa, pa, device, true};
    fanOut<&InvariantRule::onStage2Update>(kStage2Update, ev);
}

void
InvariantEngine::stage2Unmap(const void *domain, std::uint16_t vmid,
                             Addr ipa, Addr pa)
{
    ++events_;
    Stage2Event ev{domain, vmid, ipa, pa, false, false};
    fanOut<&InvariantRule::onStage2Update>(kStage2Update, ev);
}

void
InvariantEngine::protectPage(const void *domain, Addr pa, const char *tag)
{
    ++events_;
    PageGuardEvent ev{domain, pa, tag, true};
    fanOut<&InvariantRule::onPageGuard>(kPageGuard, ev);
}

void
InvariantEngine::unprotectPage(const void *domain, Addr pa)
{
    ++events_;
    PageGuardEvent ev{domain, pa, "", false};
    fanOut<&InvariantRule::onPageGuard>(kPageGuard, ev);
}

void
InvariantEngine::vgicLrWrite(CpuId cpu, unsigned idx,
                             const arm::VgicBank &bank)
{
    ++events_;
    VgicLrEvent ev{cpu, idx, &bank};
    fanOut<&InvariantRule::onVgicLr>(kVgicLr, ev);
}

void
InvariantEngine::maintenanceIrq(CpuId cpu, const arm::VgicBank &bank)
{
    ++events_;
    MaintenanceEvent ev{cpu, &bank};
    fanOut<&InvariantRule::onMaintenance>(kMaintenance, ev);
}

void
InvariantEngine::ringDoorbell(const void *domain, CpuId cpu, const char *ring,
                              std::uint64_t seq, Cycles cycle,
                              std::uint32_t availIdx)
{
    ++events_;
    RingEvent ev{domain, cpu, ring, true, seq, cycle, availIdx};
    fanOut<&InvariantRule::onRing>(kRing, ev);
}

void
InvariantEngine::ringDeliver(const void *domain, CpuId cpu, const char *ring,
                             std::uint64_t seq, Cycles cycle,
                             std::uint32_t usedIdx)
{
    ++events_;
    RingEvent ev{domain, cpu, ring, false, seq, cycle, usedIdx};
    fanOut<&InvariantRule::onRing>(kRing, ev);
}

} // namespace kvmarm::check
