#include "arm/vgic.hh"

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "sim/logging.hh"

namespace kvmarm::arm {

std::uint32_t
ListReg::pack() const
{
    return (virq & 0x3FF) | ((pirq & 0x3FF) << 10) |
           ((source & 0x7) << 20) | (std::uint32_t(priority) << 23) |
           (std::uint32_t(state) << 28) | (hw ? (1u << 31) : 0);
}

ListReg
ListReg::unpack(std::uint32_t raw)
{
    ListReg lr;
    lr.virq = raw & 0x3FF;
    lr.pirq = (raw >> 10) & 0x3FF;
    lr.source = (raw >> 20) & 0x7;
    lr.priority = static_cast<std::uint8_t>((raw >> 23) & 0x1F);
    lr.state = static_cast<LrState>((raw >> 28) & 0x3);
    lr.hw = raw & (1u << 31);
    return lr;
}

VgicHypInterface::VgicHypInterface(ArmMachine &machine, GicDistributor &dist,
                                   unsigned num_cpus)
    : Snapshottable(&machine, "gich"), machine_(machine), dist_(dist),
      banks_(num_cpus)
{
}

Cycles
VgicHypInterface::accessLatency() const
{
    return machine_.cost().gichLatency;
}

std::uint32_t
VgicHypInterface::emptyLrMask(CpuId cpu) const
{
    const VgicBank &b = banks_.at(cpu);
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < kNumListRegs; ++i) {
        if (b.lr[i].state == LrState::Empty)
            mask |= 1u << i;
    }
    return mask;
}

void
VgicHypInterface::refreshLine(CpuId cpu)
{
    const VgicBank &b = banks_[cpu];
    bool high = false;
    if (b.en && b.vmEnabled) {
        for (const ListReg &lr : b.lr) {
            if ((lr.state == LrState::Pending ||
                 lr.state == LrState::PendingActive) &&
                lr.priority < b.vmPmr) {
                high = true;
                break;
            }
        }
    }
    machine_.cpu(cpu).setIrqPin(ArmCpu::kPinVirtIrq, high);
}

bool
VgicHypInterface::virqLineHigh(CpuId cpu) const
{
    return machine_.cpu(cpu).irqPin(ArmCpu::kPinVirtIrq);
}

void
VgicHypInterface::checkMaintenance(CpuId cpu)
{
    const VgicBank &b = banks_.at(cpu);
    if (b.en && b.uie &&
        emptyLrMask(cpu) == (1u << kNumListRegs) - 1) {
        KVMARM_CHECK_ON(machine_.checkEngine(), maintenanceIrq(cpu, b));
        dist_.raisePpi(cpu, kMaintenancePpi);
    }
}

std::uint64_t
VgicHypInterface::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    VgicBank &b = banks_.at(cpu);
    switch (offset) {
      case gich::HCR:
        return (b.en ? 1u : 0) | (b.uie ? 2u : 0);
      case gich::VTR:
        return kNumListRegs - 1;
      case gich::VMCR:
        return (b.vmEnabled ? 1u : 0) | (std::uint32_t(b.vmPmr) << 24);
      case gich::MISR:
        return (b.uie && emptyLrMask(cpu) == (1u << kNumListRegs) - 1)
                   ? 2u // U bit: underflow
                   : 0u;
      case gich::EISR0:
      case gich::EISR1:
        return 0;
      case gich::ELRSR0:
        return emptyLrMask(cpu);
      case gich::ELRSR1:
        return 0;
      case gich::APR0:
      case gich::APR1:
      case gich::APR2:
      case gich::APR3:
        return b.apr[(offset - gich::APR0) / 4];
      default:
        if (offset >= gich::LR0 && offset < gich::LR0 + 4 * kNumListRegs)
            return b.lr[(offset - gich::LR0) / 4].pack();
        // VMCR alias words in the save list read as zero.
        return 0;
    }
}

void
VgicHypInterface::write(CpuId cpu, Addr offset, std::uint64_t value,
                        unsigned len)
{
    (void)len;
    if (store(cpu, offset, static_cast<std::uint32_t>(value)))
        refreshLine(cpu);
}

bool
VgicHypInterface::store(CpuId cpu, Addr offset, std::uint32_t v)
{
    VgicBank &b = banks_.at(cpu);
    switch (offset) {
      case gich::HCR:
        b.en = v & 1;
        b.uie = v & 2;
        return true;
      case gich::VMCR:
        b.vmEnabled = v & 1;
        b.vmPmr = static_cast<std::uint8_t>(v >> 24);
        return true;
      case gich::APR0:
      case gich::APR1:
      case gich::APR2:
      case gich::APR3:
        b.apr[(offset - gich::APR0) / 4] = v;
        return false;
      default:
        if (offset >= gich::LR0 && offset < gich::LR0 + 4 * kNumListRegs) {
            unsigned idx = (offset - gich::LR0) / 4;
            b.lr[idx] = ListReg::unpack(v);
            KVMARM_CHECK_ON(machine_.checkEngine(), vgicLrWrite(cpu, idx, b));
            return true;
        }
        // VTR/MISR/EISR/ELRSR and alias words are read-only; ignore.
        return false;
    }
}

bool
VgicHypInterface::accessBurst(CpuId cpu, Addr base,
                              std::span<const Addr> offsets,
                              std::span<std::uint32_t> values, bool write)
{
    if (!write) {
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            values[i] = static_cast<std::uint32_t>(
                VgicHypInterface::read(cpu, base + offsets[i], 4));
        }
        return true;
    }
    // Nothing runs between the stores, so nothing can see the line level
    // before the last one.
    bool refresh = false;
    for (std::size_t i = 0; i < offsets.size(); ++i)
        refresh |= store(cpu, base + offsets[i], values[i]);
    if (refresh)
        refreshLine(cpu);
    return true;
}

IrqId
VgicHypInterface::acknowledgeVirq(CpuId cpu)
{
    VgicBank &b = banks_.at(cpu);
    if (!b.en || !b.vmEnabled)
        return kSpuriousIrq;

    int best = -1;
    for (unsigned i = 0; i < kNumListRegs; ++i) {
        const ListReg &lr = b.lr[i];
        if (lr.state != LrState::Pending &&
            lr.state != LrState::PendingActive)
            continue;
        if (lr.priority >= b.vmPmr)
            continue;
        if (best < 0 || lr.priority < b.lr[best].priority)
            best = static_cast<int>(i);
    }
    if (best < 0)
        return kSpuriousIrq;

    ListReg &lr = b.lr[best];
    lr.state = (lr.state == LrState::Pending) ? LrState::Active
                                              : LrState::PendingActive;
    refreshLine(cpu);
    return lr.virq | (lr.virq < kNumSgis ? (lr.source << 10) : 0);
}

void
VgicHypInterface::endOfVirq(CpuId cpu, std::uint32_t value)
{
    VgicBank &b = banks_.at(cpu);
    IrqId virq = value & 0x3FF;
    for (ListReg &lr : b.lr) {
        if (lr.virq != virq)
            continue;
        if (lr.state == LrState::Active) {
            lr = ListReg{}; // now empty
            refreshLine(cpu);
            checkMaintenance(cpu);
            return;
        }
        if (lr.state == LrState::PendingActive) {
            lr.state = LrState::Pending;
            refreshLine(cpu);
            return;
        }
    }
    warn("gicv: EOI for inactive virq %u on cpu%u", virq, cpu);
}

void
VgicHypInterface::setVmEnabled(CpuId cpu, bool enabled)
{
    banks_.at(cpu).vmEnabled = enabled;
    refreshLine(cpu);
}

void
VgicHypInterface::setVmPmr(CpuId cpu, std::uint8_t pmr)
{
    banks_.at(cpu).vmPmr = pmr;
    refreshLine(cpu);
}

VgicCpuInterface::VgicCpuInterface(ArmMachine &machine,
                                   VgicHypInterface &hyp)
    : machine_(machine), hyp_(hyp)
{
}

Cycles
VgicCpuInterface::accessLatency() const
{
    return machine_.cost().gicvLatency;
}

std::uint64_t
VgicCpuInterface::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    const VgicBank &b = hyp_.bank(cpu);
    switch (offset) {
      case gicc::CTLR:
        return b.vmEnabled ? 1 : 0;
      case gicc::PMR:
        return b.vmPmr;
      case gicc::IAR:
        return hyp_.acknowledgeVirq(cpu);
      case gicc::HPPIR: {
        IrqId best = kSpuriousIrq;
        std::uint8_t prio = 0xFF;
        for (const ListReg &lr : b.lr) {
            if ((lr.state == LrState::Pending ||
                 lr.state == LrState::PendingActive) &&
                lr.priority < prio) {
                best = lr.virq;
                prio = lr.priority;
            }
        }
        return best;
      }
      default:
        return 0;
    }
}

void
VgicCpuInterface::write(CpuId cpu, Addr offset, std::uint64_t value,
                        unsigned len)
{
    (void)len;
    switch (offset) {
      case gicc::CTLR:
        hyp_.setVmEnabled(cpu, value & 1);
        break;
      case gicc::PMR:
        hyp_.setVmPmr(cpu, static_cast<std::uint8_t>(value));
        break;
      case gicc::EOIR:
        hyp_.endOfVirq(cpu, static_cast<std::uint32_t>(value));
        break;
      default:
        break;
    }
}

} // namespace kvmarm::arm
