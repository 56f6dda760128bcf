#include "check/rules.hh"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arm/gic.hh"
#include "arm/vgic.hh"
#include "sim/logging.hh"

namespace kvmarm::check {

namespace {

using arm::Mode;

/** (machine/Mm, pa) pair keying per-PA shadow state, so two machines in
 *  one process (migration tests) cannot alias. */
using DomainPa = std::pair<const void *, Addr>;

/**
 * Per-CPU shadow state keyed by (machine, cpu), for the same reason. An
 * engine sees one machine's CPUs, so the table holds a few entries and a
 * linear scan beats any tree or hash lookup.
 */
template <typename T>
class PerCpu
{
  public:
    /** The entry for (@p domain, @p cpu), or null if never created. */
    T *
    find(const void *domain, CpuId cpu)
    {
        for (Entry &e : entries_) {
            if (e.domain == domain && e.cpu == cpu)
                return &e.value;
        }
        return nullptr;
    }

    /** The entry for (@p domain, @p cpu), value-initialized on first use. */
    T &
    operator()(const void *domain, CpuId cpu)
    {
        if (T *v = find(domain, cpu))
            return *v;
        entries_.push_back(Entry{domain, cpu, T{}});
        return entries_.back().value;
    }

    void clear() { entries_.clear(); }

  private:
    struct Entry
    {
        const void *domain;
        CpuId cpu;
        T value;
    };
    std::vector<Entry> entries_;
};

/**
 * Rule 1 — privilege: the registers backing split-mode operation (HCR,
 * VTTBR, HSR, HTTBR, Hyp vectors...) exist only in Hyp mode; any software
 * access from PL0/PL1 means the lowvisor/highvisor boundary leaked
 * (paper §3.2).
 */
class PrivilegeRule : public InvariantRule
{
  public:
    const char *name() const override { return "privilege"; }

    void
    onHypAccess(InvariantEngine &eng, const HypAccessEvent &ev) override
    {
        if (ev.mode != Mode::Hyp) {
            eng.report(*this,
                       strfmt("cpu%u: Hyp-only register '%s' accessed from "
                              "%s mode",
                              ev.cpu, ev.reg, arm::modeName(ev.mode)));
        }
    }
};

/** A set of StateClass values, bit i standing for class i. */
using ClassMask = std::uint8_t;
static_assert(kNumStateClasses <= 8, "StateClass outgrew ClassMask");

constexpr ClassMask
bit(StateClass cls)
{
    return static_cast<ClassMask>(1u << static_cast<unsigned>(cls));
}

/**
 * Rule 2 — ws-pairing: a per-switch ledger proving the world switch moves
 * Table 1's state symmetrically. Every state group saved for the host on
 * toVm must be restored on toHost and vice versa; lazily switched state
 * (VFP via HCPTR traps) joins the ledger whenever its deferred transfer
 * actually happens (paper §3.2).
 */
class WsPairingRule : public InvariantRule
{
  public:
    const char *name() const override { return "ws-pairing"; }

    void reset() override { epochs_.clear(); }

    void
    onWorldSwitch(InvariantEngine &eng, const WorldSwitchEvent &ev) override
    {
        Epoch &ep = epochs_(ev.domain, ev.cpu);
        if (ev.dir == SwitchDir::ToVm && ev.begin) {
            if (ep.open) {
                eng.report(*this,
                           strfmt("cpu%u: toVm entered twice with no "
                                  "intervening toHost",
                                  ev.cpu));
            }
            ep = Epoch{};
            ep.open = true;
            return;
        }
        if (ev.dir == SwitchDir::ToVm && !ev.begin) {
            // Guest entry: the minimal Table 1 set must have moved.
            requireCls(eng, ev.cpu, ep.moved(Xfer::SaveHost), StateClass::Gp,
                       "host gp registers not saved before guest entry");
            requireCls(eng, ev.cpu, ep.moved(Xfer::SaveHost),
                       StateClass::Ctrl,
                       "host ctrl registers not saved before guest entry");
            requireCls(eng, ev.cpu, ep.moved(Xfer::RestoreGuest),
                       StateClass::Gp,
                       "guest gp registers not restored before guest entry");
            requireCls(eng, ev.cpu, ep.moved(Xfer::RestoreGuest),
                       StateClass::Ctrl,
                       "guest ctrl registers not restored before guest "
                       "entry");
            return;
        }
        if (ev.dir == SwitchDir::ToHost && !ev.begin && ep.open) {
            checkSymmetry(eng, ev.cpu, ep);
            ep.open = false;
        }
    }

    void
    onStateTransfer(InvariantEngine &, const StateTransferEvent &ev) override
    {
        Epoch *ep = epochs_.find(ev.domain, ev.cpu);
        if (!ep || !ep->open)
            return; // transfer outside any switch epoch: unit-test traffic
        ep->moved(ev.kind) |= bit(ev.cls);
    }

  private:
    /** One switch epoch: the classes each transfer kind moved. */
    struct Epoch
    {
        bool open = false;
        ClassMask masks[kNumXfers] = {};

        ClassMask &moved(Xfer k) { return masks[static_cast<unsigned>(k)]; }
        ClassMask
        moved(Xfer k) const
        {
            return masks[static_cast<unsigned>(k)];
        }
    };

    void
    requireCls(InvariantEngine &eng, CpuId cpu, ClassMask set, StateClass cls,
               const char *what)
    {
        if (!(set & bit(cls)))
            eng.report(*this, strfmt("cpu%u: %s", cpu, what));
    }

    void
    checkSymmetry(InvariantEngine &eng, CpuId cpu, const Epoch &ep)
    {
        const ClassMask saved_host = ep.moved(Xfer::SaveHost);
        const ClassMask restored_host = ep.moved(Xfer::RestoreHost);
        const ClassMask saved_guest = ep.moved(Xfer::SaveGuest);
        const ClassMask restored_guest = ep.moved(Xfer::RestoreGuest);
        diff(eng, cpu, saved_host, restored_host,
             "saved for the host in toVm but never restored in toHost");
        diff(eng, cpu, restored_host, saved_host,
             "restored for the host in toHost but never saved in toVm");
        diff(eng, cpu, restored_guest, saved_guest,
             "loaded for the guest but never saved back on exit");
        diff(eng, cpu, saved_guest, restored_guest,
             "saved for the guest on exit but never loaded on entry");
    }

    /** Report every class in @p a missing from @p b, in enum order. */
    void
    diff(InvariantEngine &eng, CpuId cpu, ClassMask a, ClassMask b,
         const char *what)
    {
        const ClassMask missing = a & ~b;
        for (unsigned c = 0; c < kNumStateClasses; ++c) {
            if (missing & (1u << c)) {
                eng.report(*this,
                           strfmt("cpu%u: %s state %s", cpu,
                                  stateClassName(static_cast<StateClass>(c)),
                                  what));
            }
        }
    }

    PerCpu<Epoch> epochs_;
};

/**
 * Rule 3 — stage2-isolation: Stage-2 tables are the VM's only window onto
 * physical memory (paper §3.3), so no VM may ever map a physical page
 * owned by another VM as RAM, nor any page of the protected hypervisor
 * region (Hyp Stage-1 tables, Stage-2 table pages).
 */
class Stage2IsolationRule : public InvariantRule
{
  public:
    const char *name() const override { return "stage2-isolation"; }

    void
    reset() override
    {
        ramOwner_.clear();
        protected_.clear();
    }

    void
    onStage2Update(InvariantEngine &eng, const Stage2Event &ev) override
    {
        DomainPa key{ev.domain, ev.pa};
        if (!ev.map) {
            auto it = ramOwner_.find(key);
            if (it != ramOwner_.end() && it->second == ev.vmid)
                ramOwner_.erase(it);
            return;
        }

        auto prot = protected_.find(key);
        if (prot != protected_.end()) {
            eng.report(*this,
                       strfmt("vm%u maps protected %s page pa=%#llx at "
                              "ipa=%#llx",
                              ev.vmid, prot->second,
                              static_cast<unsigned long long>(ev.pa),
                              static_cast<unsigned long long>(ev.ipa)));
            return;
        }
        auto owner = ramOwner_.find(key);
        if (owner != ramOwner_.end() && owner->second != ev.vmid) {
            eng.report(*this,
                       strfmt("vm%u maps pa=%#llx (ipa=%#llx, %s) owned by "
                              "vm%u",
                              ev.vmid, static_cast<unsigned long long>(ev.pa),
                              static_cast<unsigned long long>(ev.ipa),
                              ev.device ? "device" : "ram", owner->second));
            return;
        }
        if (!ev.device)
            ramOwner_[key] = ev.vmid;
    }

    void
    onPageGuard(InvariantEngine &eng, const PageGuardEvent &ev) override
    {
        DomainPa key{ev.domain, ev.pa};
        if (!ev.protect) {
            protected_.erase(key);
            return;
        }
        auto owner = ramOwner_.find(key);
        if (owner != ramOwner_.end()) {
            eng.report(*this,
                       strfmt("page pa=%#llx protected as '%s' while mapped "
                              "into vm%u",
                              static_cast<unsigned long long>(ev.pa), ev.tag,
                              owner->second));
        }
        protected_[key] = ev.tag;
    }

  private:
    std::map<DomainPa, std::uint16_t> ramOwner_;
    std::map<DomainPa, const char *> protected_;
};

/**
 * Rule 4 — trap-config: on guest entry the HCR trap set KVM/ARM relies on
 * (IMO/FMO/TWI/TWE/TSC/TAC/SWIO/TIDCP) must be programmed, Stage-2 must be
 * enabled with a valid VTTBR, and back in the host everything must be
 * clear again. Between switches, Stage-2 must be enabled iff a guest
 * world is executing at PL0/PL1.
 */
class TrapConfigRule : public InvariantRule
{
  public:
    const char *name() const override { return "trap-config"; }

    void reset() override { world_.clear(); }

    void
    onWorldSwitch(InvariantEngine &eng, const WorldSwitchEvent &ev) override
    {
        if (ev.begin)
            return;
        const arm::HypState &h = *ev.hyp;
        if (ev.dir == SwitchDir::ToVm) {
            requireTrap(eng, ev.cpu, h.hcr.imo, "imo");
            requireTrap(eng, ev.cpu, h.hcr.fmo, "fmo");
            requireTrap(eng, ev.cpu, h.hcr.twi, "twi");
            requireTrap(eng, ev.cpu, h.hcr.twe, "twe");
            requireTrap(eng, ev.cpu, h.hcr.tsc, "tsc");
            requireTrap(eng, ev.cpu, h.hcr.tac, "tac");
            requireTrap(eng, ev.cpu, h.hcr.swio, "swio");
            requireTrap(eng, ev.cpu, h.hcr.tidcp, "tidcp");
            if (!h.hcr.vm) {
                eng.report(*this,
                           strfmt("cpu%u: guest entry with Stage-2 "
                                  "translation disabled",
                                  ev.cpu));
            }
            if ((h.vttbr & ((1ull << 48) - 1)) == 0) {
                eng.report(*this,
                           strfmt("cpu%u: guest entry with null VTTBR",
                                  ev.cpu));
            }
            world_(ev.domain, ev.cpu) = World::Guest;
        } else {
            if (h.hcr.vm) {
                eng.report(*this,
                           strfmt("cpu%u: returned to host with Stage-2 "
                                  "translation still enabled",
                                  ev.cpu));
            }
            if (h.hcr.imo || h.hcr.fmo || h.hcr.twi || h.hcr.twe ||
                h.hcr.tsc || h.hcr.tac || h.hcr.swio || h.hcr.tidcp) {
                eng.report(*this,
                           strfmt("cpu%u: returned to host with guest trap "
                                  "bits still set",
                                  ev.cpu));
            }
            world_(ev.domain, ev.cpu) = World::Host;
        }
    }

    void
    onModeChange(InvariantEngine &eng, const ModeChangeEvent &ev) override
    {
        if (ev.to == Mode::Hyp || ev.to == Mode::Mon)
            return;
        const World *world = world_.find(ev.domain, ev.cpu);
        if (!world)
            return; // no world switch seen yet (boot, bare-metal model)
        if (*world == World::Guest && !ev.stage2On) {
            eng.report(*this,
                       strfmt("cpu%u: entered %s mode in the guest world "
                              "with Stage-2 disabled",
                              ev.cpu, arm::modeName(ev.to)));
        } else if (*world == World::Host && ev.stage2On) {
            eng.report(*this,
                       strfmt("cpu%u: entered %s mode in the host world "
                              "with Stage-2 enabled",
                              ev.cpu, arm::modeName(ev.to)));
        }
    }

  private:
    enum class World { Host, Guest };

    void
    requireTrap(InvariantEngine &eng, CpuId cpu, bool bit, const char *nm)
    {
        if (!bit) {
            eng.report(*this,
                       strfmt("cpu%u: guest entry without HCR.%s trap set",
                              cpu, nm));
        }
    }

    PerCpu<World> world_;
};

/**
 * Rule 5 — vgic: the list registers are a set, not a queue — one virtual
 * interrupt id may occupy at most one LR (hardware SGIs from distinct
 * sources excepted), and the maintenance interrupt may only be raised on
 * a genuine underflow condition (EN+UIE with every LR empty, paper §3.5).
 */
class VgicRule : public InvariantRule
{
  public:
    const char *name() const override { return "vgic"; }

    void
    onVgicLr(InvariantEngine &eng, const VgicLrEvent &ev) override
    {
        const arm::VgicBank &b = *ev.bank;
        const arm::ListReg &written = b.lr[ev.idx];
        if (written.state == arm::LrState::Empty)
            return;
        for (unsigned i = 0; i < arm::kNumListRegs; ++i) {
            if (i == ev.idx || b.lr[i].state == arm::LrState::Empty)
                continue;
            if (b.lr[i].virq != written.virq)
                continue;
            // SGIs from different source CPUs legitimately coexist.
            if (written.virq < arm::kNumSgis &&
                b.lr[i].source != written.source)
                continue;
            eng.report(*this,
                       strfmt("cpu%u: virq %u pending in LR%u and LR%u "
                              "simultaneously",
                              ev.cpu, written.virq, i, ev.idx));
        }
    }

    void
    onMaintenance(InvariantEngine &eng, const MaintenanceEvent &ev) override
    {
        const arm::VgicBank &b = *ev.bank;
        bool all_empty = true;
        for (const arm::ListReg &lr : b.lr)
            all_empty &= lr.state == arm::LrState::Empty;
        if (!b.en || !b.uie || !all_empty) {
            eng.report(*this,
                       strfmt("cpu%u: maintenance interrupt raised without "
                              "a genuine underflow (en=%d uie=%d "
                              "all_empty=%d)",
                              ev.cpu, b.en, b.uie, all_empty));
        }
    }
};

/**
 * Rule 6 — ring-order: the inter-VM ring protocol's observable order must
 * be a pure function of simulated execution (DESIGN.md §4.10). Per
 * (machine, ring, direction): message sequence numbers are gapless from
 * zero, their cycles never move backwards, and the guest-visible ring
 * index advances by exactly one per message. Any gap or reordering means
 * the rendezvous protocol leaked host-thread timing into the simulation.
 */
class RingOrderRule : public InvariantRule
{
  public:
    const char *name() const override { return "ring-order"; }

    void reset() override { dirs_.clear(); }

    void
    onRing(InvariantEngine &eng, const RingEvent &ev) override
    {
        DirState &st = dirState(ev);
        const char *what = ev.doorbell ? "doorbell" : "delivery";
        if (ev.seq != st.nextSeq) {
            eng.report(*this,
                       strfmt("cpu%u: ring '%s' %s seq %llu, expected %llu "
                              "(gap or replay)",
                              ev.cpu, ev.ring, what,
                              static_cast<unsigned long long>(ev.seq),
                              static_cast<unsigned long long>(st.nextSeq)));
        }
        if (st.nextSeq > 0 && ev.cycle < st.lastCycle) {
            eng.report(*this,
                       strfmt("cpu%u: ring '%s' %s seq %llu at cycle %llu "
                              "behind its predecessor at cycle %llu",
                              ev.cpu, ev.ring, what,
                              static_cast<unsigned long long>(ev.seq),
                              static_cast<unsigned long long>(ev.cycle),
                              static_cast<unsigned long long>(st.lastCycle)));
        }
        if (st.nextSeq > 0 && ev.ringIdx != st.lastRingIdx + 1) {
            eng.report(*this,
                       strfmt("cpu%u: ring '%s' %s index jumped %u -> %u "
                              "(must advance by one per message)",
                              ev.cpu, ev.ring, what, st.lastRingIdx,
                              ev.ringIdx));
        }
        st.nextSeq = ev.seq + 1;
        st.lastCycle = ev.cycle;
        st.lastRingIdx = ev.ringIdx;
    }

  private:
    struct DirState
    {
        std::uint64_t nextSeq = 0;
        Cycles lastCycle = 0;
        std::uint32_t lastRingIdx = 0;
    };
    /** One (machine, ring, direction). Names compare by content, so two
     *  buffers spelling one name share state. */
    struct Dir
    {
        const void *domain;
        std::string ring;
        bool doorbell;
        DirState state;
    };

    /** The state of @p ev's direction. A machine has a few rings, so a
     *  scan finds it; the name is copied only when first seen. */
    DirState &
    dirState(const RingEvent &ev)
    {
        for (Dir &d : dirs_) {
            if (d.domain == ev.domain && d.doorbell == ev.doorbell &&
                d.ring == ev.ring)
                return d.state;
        }
        dirs_.push_back(Dir{ev.domain, ev.ring, ev.doorbell, DirState{}});
        return dirs_.back().state;
    }

    std::vector<Dir> dirs_;
};

} // namespace

std::vector<std::unique_ptr<InvariantRule>>
builtinRules()
{
    std::vector<std::unique_ptr<InvariantRule>> rules;
    rules.push_back(std::make_unique<PrivilegeRule>());
    rules.push_back(std::make_unique<WsPairingRule>());
    rules.push_back(std::make_unique<Stage2IsolationRule>());
    rules.push_back(std::make_unique<TrapConfigRule>());
    rules.push_back(std::make_unique<VgicRule>());
    rules.push_back(std::make_unique<RingOrderRule>());
    return rules;
}

} // namespace kvmarm::check
