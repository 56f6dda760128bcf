#include "workload/harness.hh"

#include <memory>
#include <vector>

#include "arm/machine.hh"
#include "core/kvm_stack.hh"
#include "kvmx86/kvm_x86.hh"
#include "sim/logging.hh"
#include "vdev/model_dev.hh"
#include "vdev/qemu.hh"
#include "workload/arm_port.hh"
#include "workload/x86_port.hh"

namespace kvmarm::wl {

using arm::ArmMachine;
using x86::X86Machine;

const char *
platformName(Platform p)
{
    switch (p) {
      case Platform::ArmVgic: return "ARM";
      case Platform::ArmNoVgic: return "ARM no VGIC/vtimers";
      case Platform::X86Laptop: return "x86 laptop";
      case Platform::X86Server: return "x86 server";
    }
    return "?";
}

namespace {

bool
isArm(Platform p)
{
    return p == Platform::ArmVgic || p == Platform::ArmNoVgic;
}

/** LAN peer (the iMac / OVH server): dominated by network RTT. */
vdev::DevProfile
remoteServerProfile()
{
    return {"lan-server", 340000, 17, 80};
}

std::vector<vdev::DevProfile>
deviceProfiles(const DeviceSetup &setup)
{
    std::vector<vdev::DevProfile> profiles(3);
    if (setup.net)
        profiles[0] = vdev::usbEthProfile();
    if (setup.disk)
        profiles[1] = vdev::ssdProfile();
    if (setup.remote)
        profiles[2] = remoteServerProfile();
    return profiles;
}

/** Run @p machine to completion (the run sets @p rm.elapsed), then add
 *  the busy fraction across the run's CPUs and the elapsed seconds. */
template <class Machine>
RunMetrics
measure(Machine &machine, const Experiment &exp, RunMetrics &rm)
{
    machine.run();
    Cycles total = 0;
    Cycles idle = 0;
    for (unsigned i = 0; i < exp.numCpus; ++i) {
        total += machine.cpuBase(i).now();
        idle += machine.cpuBase(i).idleCycles();
    }
    rm.cpuUtil = total ? 1.0 - double(idle) / double(total) : 0.0;
    rm.seconds = machine.seconds(rm.elapsed);
    return rm;
}

/** Native run: boot each port on its CPU, then run work on CPU0 and, on
 *  a 2-CPU run, side on CPU1. */
template <class Machine, class Port>
RunMetrics
runOnPorts(Machine &machine, const Experiment &exp, Port &port0, Port *port1)
{
    RunMetrics rm;
    machine.cpu(0).setEntry([&] {
        port0.boot();
        rm.elapsed = exp.work(port0);
    });
    if (port1) {
        machine.cpu(1).setEntry([&] {
            port1->boot();
            exp.side(*port1);
        });
    }
    return measure(machine, exp, rm);
}

RunMetrics
runArmNative(const Experiment &exp)
{
    ArmMachine::Config mc;
    mc.numCpus = exp.numCpus;
    mc.ramSize = 512 * kMiB;
    ArmMachine machine(mc);

    auto profiles = deviceProfiles(exp.devices);
    std::vector<std::unique_ptr<vdev::ModelDevice>> devs(profiles.size());
    for (unsigned slot = 0; slot < profiles.size(); ++slot) {
        if (profiles[slot].name.empty())
            continue;
        IrqId spi = vdev::kDevSpiBase + slot;
        Addr used = ArmMachine::kRamBase + vdev::kUsedPageOffset + slot * 8;
        devs[slot] = std::make_unique<vdev::ModelDevice>(
            profiles[slot], machine.cpuBase(0),
            [&machine, spi](Cycles when) {
                machine.gicd().raiseSpi(spi, when);
            },
            [&machine, used](std::uint64_t completed) {
                machine.ram().write(used, completed, 8);
            });
        machine.bus().addDevice(ArmMachine::kVirtioBase + slot * 0x1000,
                                0x1000, devs[slot].get());
    }

    ArmOsImage image;
    image.ramSize = 256 * kMiB;
    ArmLinuxPort port0(machine.cpu(0), image, 0);
    std::unique_ptr<ArmLinuxPort> port1;
    if (exp.numCpus == 2)
        port1 = std::make_unique<ArmLinuxPort>(machine.cpu(1), image, 1);

    return runOnPorts(machine, exp, port0, port1.get());
}

RunMetrics
runArmVirt(const Experiment &exp)
{
    core::KvmConfig kc;
    kc.useVgic = exp.platform == Platform::ArmVgic;
    kc.useVtimers = kc.useVgic;
    core::KvmStack stack(
        {.numCpus = exp.numCpus, .ramSize = 768 * kMiB, .kvm = kc});

    std::unique_ptr<core::Vm> vm;
    std::unique_ptr<vdev::QemuArm> qemu;
    ArmOsImage image;
    image.ramSize = 256 * kMiB;
    ArmLinuxPort port0(stack.machine.cpu(0), image, 0);
    std::unique_ptr<ArmLinuxPort> port1;
    if (exp.numCpus == 2)
        port1 = std::make_unique<ArmLinuxPort>(stack.machine.cpu(1), image, 1);

    auto profiles = deviceProfiles(exp.devices);

    RunMetrics rm;
    bool ready = false;
    stack.onCpu(0, [&](arm::ArmCpu &cpu) {
        vm = stack.kvm.createVm(384 * kMiB);
        core::VCpu &vcpu0 = vm->addVcpu(0);
        if (exp.numCpus == 2)
            vm->addVcpu(1);
        qemu = std::make_unique<vdev::QemuArm>(stack.kvm, *vm);
        for (unsigned slot = 0; slot < profiles.size(); ++slot) {
            if (!profiles[slot].name.empty())
                qemu->addDevice(slot, profiles[slot]);
        }
        vcpu0.setGuestOs(&port0);
        ready = true;
        vcpu0.run(cpu, [&](arm::ArmCpu &) {
            port0.boot();
            rm.elapsed = exp.work(port0);
        });
    });
    if (port1) {
        stack.onCpu(1, [&](arm::ArmCpu &cpu) {
            while (!ready)
                cpu.compute(500);
            core::VCpu &vcpu1 = *vm->vcpus()[1];
            vcpu1.setGuestOs(port1.get());
            vcpu1.run(cpu, [&](arm::ArmCpu &) {
                port1->boot();
                exp.side(*port1);
            });
        });
    }
    return measure(stack.machine, exp, rm);
}

RunMetrics
runX86Native(const Experiment &exp)
{
    X86Machine::Config mc;
    mc.numCpus = exp.numCpus;
    mc.ramSize = 512 * kMiB;
    mc.platform = exp.platform == Platform::X86Laptop
                      ? x86::X86Platform::Laptop
                      : x86::X86Platform::Server;
    X86Machine machine(mc);

    auto profiles = deviceProfiles(exp.devices);
    std::vector<std::unique_ptr<vdev::ModelDevice>> devs(profiles.size());
    for (unsigned slot = 0; slot < profiles.size(); ++slot) {
        if (profiles[slot].name.empty())
            continue;
        std::uint8_t vec = vdev::kDevVectorBase + slot;
        Addr used = vdev::kUsedPageOffset + slot * 8;
        devs[slot] = std::make_unique<vdev::ModelDevice>(
            profiles[slot], machine.cpuBase(0),
            [&machine, vec](Cycles when) {
                machine.apic().postVector(0, vec, when);
            },
            [&machine, used](std::uint64_t completed) {
                machine.ram().write(used, completed, 8);
            });
        machine.bus().addDevice(X86Machine::kVirtioBase + slot * 0x1000,
                                0x1000, devs[slot].get());
    }

    X86OsImage image;
    image.ramSize = 256 * kMiB;
    X86LinuxPort port0(machine.cpu(0), image, 0);
    std::unique_ptr<X86LinuxPort> port1;
    if (exp.numCpus == 2) {
        port1 = std::make_unique<X86LinuxPort>(machine.cpu(1), image, 1);
        port0.peer = port1.get();
        port1->peer = &port0;
    }

    return runOnPorts(machine, exp, port0, port1.get());
}

RunMetrics
runX86Virt(const Experiment &exp)
{
    X86Machine::Config mc;
    mc.numCpus = exp.numCpus;
    mc.ramSize = 768 * kMiB;
    mc.platform = exp.platform == Platform::X86Laptop
                      ? x86::X86Platform::Laptop
                      : x86::X86Platform::Server;
    X86Machine machine(mc);
    kvmx86::X86Host hostx(machine);
    kvmx86::KvmX86 kvm(hostx);

    std::unique_ptr<kvmx86::VmX86> vm;
    std::unique_ptr<vdev::QemuX86> qemu;
    X86OsImage image;
    image.ramSize = 256 * kMiB;
    X86LinuxPort port0(machine.cpu(0), image, 0);
    std::unique_ptr<X86LinuxPort> port1;
    if (exp.numCpus == 2) {
        port1 = std::make_unique<X86LinuxPort>(machine.cpu(1), image, 1);
        port0.peer = port1.get();
        port1->peer = &port0;
    }

    auto profiles = deviceProfiles(exp.devices);

    RunMetrics rm;
    bool ready = false;
    machine.cpu(0).setEntry([&] {
        x86::X86Cpu &cpu = machine.cpu(0);
        hostx.boot(0);
        kvm.initCpu(cpu);
        vm = kvm.createVm(384 * kMiB);
        kvmx86::VCpuX86 &vcpu0 = vm->addVcpu(0);
        if (exp.numCpus == 2)
            vm->addVcpu(1);
        qemu = std::make_unique<vdev::QemuX86>(kvm, *vm);
        for (unsigned slot = 0; slot < profiles.size(); ++slot) {
            if (!profiles[slot].name.empty())
                qemu->addDevice(slot, profiles[slot]);
        }
        vcpu0.setGuestOs(&port0);
        ready = true;
        vcpu0.run(cpu, [&](x86::X86Cpu &) {
            port0.boot();
            rm.elapsed = exp.work(port0);
        });
    });
    if (port1) {
        machine.cpu(1).setEntry([&] {
            x86::X86Cpu &cpu = machine.cpu(1);
            hostx.boot(1);
            kvm.initCpu(cpu);
            while (!ready)
                cpu.compute(500);
            kvmx86::VCpuX86 &vcpu1 = *vm->vcpus()[1];
            vcpu1.setGuestOs(port1.get());
            vcpu1.run(cpu, [&](x86::X86Cpu &) {
                port1->boot();
                exp.side(*port1);
            });
        });
    }
    return measure(machine, exp, rm);
}

/** Start a run: diagnose a malformed experiment before any machine is
 *  built, then reset the workload's shared state. */
void
start(const Experiment &exp)
{
    if (!exp.work)
        fatal("wl::Experiment: work is not set");
    if (exp.numCpus != 1 && exp.numCpus != 2)
        fatal("wl::Experiment: numCpus is %u; a run uses 1 or 2 CPUs",
              exp.numCpus);
    if (exp.numCpus == 2 && !exp.side)
        fatal("wl::Experiment: a 2-CPU run needs side set");
    if (exp.prepare)
        exp.prepare();
}

} // namespace

RunMetrics
runNative(const Experiment &exp)
{
    start(exp);
    return isArm(exp.platform) ? runArmNative(exp) : runX86Native(exp);
}

RunMetrics
runVirt(const Experiment &exp)
{
    start(exp);
    return isArm(exp.platform) ? runArmVirt(exp) : runX86Virt(exp);
}

double
overhead(const Experiment &exp)
{
    RunMetrics native = runNative(exp);
    RunMetrics virt = runVirt(exp);
    return native.elapsed ? double(virt.elapsed) / double(native.elapsed)
                          : 0.0;
}

} // namespace kvmarm::wl
