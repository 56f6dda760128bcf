#include "arm/machine.hh"

#include "sim/logging.hh"

namespace kvmarm::arm {

// Snapshot participants register as they are constructed: the members in
// declaration order (ram_, gicd_, gicc_, gich_, timer_; gicv_ carries no
// state of its own, it proxies gich_), then the CPUs, then host/hypervisor
// layers as they are built on top.
ArmMachine::ArmMachine(const Config &config)
    : config_(config), ram_(kRamBase, config.ramSize, this), bus_(ram_),
      gicd_(*this, config.numCpus), gicc_(*this, gicd_, config.numCpus),
      gich_(*this, gicd_, config.numCpus), gicv_(*this, gich_),
      timer_(*this, config.numCpus)
{
    if (config.numCpus == 0 || config.numCpus > 8)
        fatal("ArmMachine: 1-8 CPUs supported, got %u", config.numCpus);

    bus_.addDevice(kGicdBase, kGicRegionSize, &gicd_);
    bus_.addDevice(kGiccBase, kGicRegionSize, &gicc_);
    if (config.hwVgic) {
        bus_.addDevice(kGicvBase, kGicRegionSize, &gicv_);
        bus_.addDevice(kGichBase, kGicRegionSize, &gich_);
    }

    for (CpuId i = 0; i < config.numCpus; ++i) {
        cpus_.push_back(std::make_unique<ArmCpu>(i, *this));
        registerCpu(cpus_.back().get());
    }
}

} // namespace kvmarm::arm
