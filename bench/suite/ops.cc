#include <algorithm>

#include "arm/cpu.hh"
#include "arm/gic.hh"
#include "arm/machine.hh"
#include "core/types.hh"
#include "core/vm.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "suite.hh"

namespace kvmarm::suite {

const std::array<const char *, kNumOpKinds> kOpMetric = {
    "arm.load_hot",     "arm.load_cold",   "arm.store",
    "core.hvc",         "core.mmio_kernel", "core.mmio_user",
    "core.vgic_dist",   "core.sysreg_trap", "core.stage2_fault",
};

namespace {

constexpr unsigned kKindShift = 28;
constexpr std::uint32_t kArgMask = (1u << kKindShift) - 1;
constexpr std::uint32_t kWordsPerPage = kPageSize / 4;

/** Trapped sensitive ops the SysregTrap kind cycles through. */
constexpr arm::SensitiveOp kSysregOps[] = {
    arm::SensitiveOp::ActlrRead, arm::SensitiveOp::L2ctlrRead,
    arm::SensitiveOp::Cp14Read,  arm::SensitiveOp::Cp14Write,
    arm::SensitiveOp::CacheSetWay,
};

/** Side-effect-free distributor registers the VgicDist kind reads. */
constexpr Addr kVgicRegs[] = {
    arm::gicd::CTLR,
    arm::gicd::TYPER,
    arm::gicd::ISENABLER,
    arm::gicd::IPRIORITYR,
};

OpKind
kindOf(std::uint32_t op)
{
    return static_cast<OpKind>(op >> kKindShift);
}

inline void
execOp(arm::ArmCpu &c, std::uint32_t op, const OpTarget &t)
{
    const std::uint32_t arg = op & kArgMask;
    switch (kindOf(op)) {
      case OpKind::LoadHot:
      case OpKind::LoadCold:
        c.memRead(t.ram + Addr(arg) * 4, 4);
        return;
      case OpKind::Store:
        c.memWrite(t.ram + Addr(arg) * 4, arg, 4);
        return;
      case OpKind::Hvc:
        c.hvc(core::hvc::kTestHypercall);
        return;
      case OpKind::MmioKernel:
        c.memWrite(core::Vm::kKernelTestDevBase + (arg & 0x3ff) * 4, arg, 4);
        return;
      case OpKind::MmioUser:
        c.memWrite(arm::ArmMachine::kUartBase, arg & 0xff, 4);
        return;
      case OpKind::VgicDist:
        c.memRead(arm::ArmMachine::kGicdBase +
                      kVgicRegs[arg % std::size(kVgicRegs)],
                  4);
        return;
      case OpKind::SysregTrap:
        c.sensitiveOp(kSysregOps[arg % std::size(kSysregOps)], arg);
        return;
      case OpKind::Stage2Fault:
        c.memWrite(t.fresh + Addr(arg) * kPageSize, arg, 4);
        return;
      case OpKind::Count:
        break;
    }
    panic("kvmarm_bench: bad op word %#x", op);
}

} // namespace

OpPlan
makePlan(std::uint64_t seed, const OpMix &mix, std::size_t n)
{
    std::array<std::size_t, kNumOpKinds> count{};
    std::size_t total = 0;
    std::size_t top = 0;
    for (std::size_t k = 0; k < kNumOpKinds; ++k) {
        count[k] = static_cast<std::size_t>(
            static_cast<unsigned __int128>(n) * mix.ppm[k] / 1'000'000);
        total += count[k];
        if (mix.ppm[k] > mix.ppm[top])
            top = k;
    }
    count[top] += n - total;
    const std::size_t faults =
        count[static_cast<std::size_t>(OpKind::Stage2Fault)];
    if (faults > mix.freshPages)
        fatal("kvmarm_bench: %zu Stage-2 faults exceed the %u-page fresh "
              "region",
              faults, mix.freshPages);

    OpPlan plan;
    plan.reserve(n);
    for (std::size_t k = 0; k < kNumOpKinds; ++k)
        plan.insert(plan.end(), count[k],
                    static_cast<std::uint32_t>(k) << kKindShift);

    Rng rng(mixSeed(seed, 0x6f70));
    for (std::size_t i = plan.size(); i > 1; --i)
        std::swap(plan[i - 1], plan[rng.range(i)]);

    auto word = [&](std::uint32_t pages) {
        return static_cast<std::uint32_t>(rng.range(pages)) * kWordsPerPage +
               static_cast<std::uint32_t>(rng.range(kWordsPerPage));
    };
    std::uint32_t fresh = 0;
    for (std::uint32_t &op : plan) {
        std::uint32_t arg = 0;
        switch (kindOf(op)) {
          case OpKind::LoadHot:
            arg = word(mix.hotPages);
            break;
          case OpKind::LoadCold:
            arg = word(mix.coldPages);
            break;
          case OpKind::Store:
            arg = word(rng.range(5) < 4 ? mix.hotPages : mix.coldPages);
            break;
          case OpKind::Stage2Fault:
            arg = fresh++;
            break;
          default:
            arg = static_cast<std::uint32_t>(rng.next()) & kArgMask;
            break;
        }
        op |= arg;
    }
    return plan;
}

void
OpStats::merge(const OpStats &o)
{
    for (std::size_t k = 0; k < kNumOpKinds; ++k) {
        host[k].merge(o.host[k]);
        simCycles[k] += o.simCycles[k];
    }
}

std::uint64_t
OpStats::ops() const
{
    std::uint64_t n = 0;
    for (const Histogram &h : host)
        n += h.count();
    return n;
}

void
runOps(arm::ArmCpu &cpu, const OpPlan &plan, const OpTarget &target,
       OpStats *stats)
{
    if (!stats) {
        for (std::uint32_t op : plan)
            execOp(cpu, op, target);
        return;
    }
    for (std::uint32_t op : plan) {
        const auto k = static_cast<std::size_t>(kindOf(op));
        const Cycles s0 = cpu.now();
        const Clock::time_point t0 = Clock::now();
        execOp(cpu, op, target);
        const Clock::time_point t1 = Clock::now();
        stats->host[k].add(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
        stats->simCycles[k] += cpu.now() - s0;
    }
}

} // namespace kvmarm::suite
