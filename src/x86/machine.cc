#include "x86/machine.hh"

#include "sim/logging.hh"

namespace kvmarm::x86 {

X86CostModel
laptopCosts()
{
    X86CostModel c;
    c.vmexitHw = 316;
    c.vmentryHw = 316;
    c.exitDispatch = 704; // Table 3 laptop: hypercall - trap
    c.mmioDecode = 1250;
    c.mmioDispatch = 540;
    c.kernelToUser = 3400;
    c.userToKernel = 3600;
    c.qemuMmioWork = 795;
    return c;
}

X86CostModel
serverCosts()
{
    X86CostModel c;
    c.vmexitHw = 410;
    c.vmentryHw = 411;
    c.exitDispatch = 817; // Table 3 server: hypercall - trap
    c.mmioDecode = 1060;
    c.mmioDispatch = 540;
    c.kernelToUser = 3900;
    c.userToKernel = 4200;
    c.qemuMmioWork = 827;
    c.apicEmulate = 600;
    c.ipiWire = 2400;
    c.kvmKickCost = 7000;
    return c;
}

X86Machine::X86Machine(const Config &config)
    : config_(config),
      cost_(config.platform == X86Platform::Laptop ? laptopCosts()
                                                   : serverCosts()),
      ram_(kRamBase, config.ramSize), bus_(ram_),
      apic_(*this, config.numCpus)
{
    if (config.numCpus == 0 || config.numCpus > 8)
        fatal("X86Machine: 1-8 CPUs supported");
    bus_.addDevice(kApicBase, 0x1000, &apic_);
    for (CpuId i = 0; i < config.numCpus; ++i) {
        cpus_.push_back(std::make_unique<X86Cpu>(i, *this));
        registerCpu(cpus_.back().get());
    }
    // The CPUs snapshot only their CpuBase clock, events and stats, and
    // the APICs not at all: a restored machine would look whole but run
    // from default registers. Refuse the snapshot instead.
    addSnapshotBlocker(
        "x86 machine: X86Cpu registers, VMCS, pending injection and VMX "
        "mode, and the LocalApic pending/in-service vectors and timers, "
        "are not snapshottable");
}

double
X86Machine::clockHz() const
{
    return config_.platform == X86Platform::Laptop ? 1.8e9 : 3.4e9;
}

} // namespace kvmarm::x86
