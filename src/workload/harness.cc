#include "workload/harness.hh"

#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "vdev/model_dev.hh"
#include "workload/arch.hh"

namespace kvmarm::wl {

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

/** One Linux instance on @p Arch: the shared image and a port per CPU
 *  (port1 only on a 2-CPU run). */
template <class Arch>
struct LinuxInstance
{
    LinuxInstance(typename Arch::Machine &machine, unsigned num_cpus)
        : port0(machine.cpu(0), image, 0)
    {
        if (num_cpus == 2) {
            port1 = std::make_unique<typename Arch::Port>(machine.cpu(1),
                                                          image, 1);
            Arch::peer(port0, *port1);
        }
    }

    typename Arch::OsImage image{.ramSize = 256 * kMiB};
    typename Arch::Port port0;
    std::unique_ptr<typename Arch::Port> port1;
};

/** Native run: the devices sit on the machine's bus; boot each port on
 *  its CPU, then run work on CPU0 and, on a 2-CPU run, side on CPU1. */
template <class Arch>
RunMetrics
runNativeOn(const Experiment &exp)
{
    typename Arch::Machine machine(
        Arch::machineConfig(exp.platform, exp.numCpus, 512 * kMiB));

    auto profiles = deviceProfiles(exp.devices);
    std::vector<std::unique_ptr<vdev::ModelDevice>> devs(profiles.size());
    for (unsigned slot = 0; slot < profiles.size(); ++slot) {
        if (profiles[slot].name.empty())
            continue;
        Addr used = Arch::kRamBase + vdev::kUsedPageOffset + slot * 8;
        devs[slot] = std::make_unique<vdev::ModelDevice>(
            profiles[slot], machine.cpuBase(0),
            [&machine, slot](Cycles when) {
                Arch::raiseDevIrq(machine, slot, when);
            },
            [&machine, used](std::uint64_t completed) {
                machine.ram().write(used, completed, 8);
            });
        machine.bus().addDevice(Arch::Machine::kVirtioBase + slot * 0x1000,
                                0x1000, devs[slot].get());
    }

    LinuxInstance<Arch> os(machine, exp.numCpus);
    RunMetrics rm;
    machine.cpu(0).setEntry([&] {
        os.port0.boot();
        rm.elapsed = exp.work(os.port0);
        os.port0.offline = true;
    });
    if (os.port1) {
        machine.cpu(1).setEntry([&] {
            os.port1->boot();
            exp.side(*os.port1);
            os.port1->offline = true;
        });
    }
    return measure(machine, exp, rm);
}

/** Virtualized run: the same ports as guest kernels on the platform's
 *  KVM, with QEMU emulating the devices. */
template <class Arch>
RunMetrics
runVirtOn(const Experiment &exp)
{
    using Cpu = typename Arch::Cpu;
    typename Arch::Stack stack(
        Arch::stackConfig(exp.platform, exp.numCpus, 768 * kMiB));

    std::unique_ptr<typename Arch::Vm> vm;
    std::unique_ptr<typename Arch::Qemu> qemu;
    LinuxInstance<Arch> os(stack.machine, exp.numCpus);
    auto profiles = deviceProfiles(exp.devices);

    RunMetrics rm;
    bool ready = false;
    stack.onCpu(0, [&](Cpu &cpu) {
        vm = stack.kvm.createVm(384 * kMiB);
        auto &vcpu0 = vm->addVcpu(0);
        if (exp.numCpus == 2)
            vm->addVcpu(1);
        qemu = std::make_unique<typename Arch::Qemu>(stack.kvm, *vm);
        for (unsigned slot = 0; slot < profiles.size(); ++slot) {
            if (!profiles[slot].name.empty())
                qemu->addDevice(slot, profiles[slot]);
        }
        vcpu0.setGuestOs(&os.port0);
        ready = true;
        vcpu0.run(cpu, [&](Cpu &) {
            os.port0.boot();
            rm.elapsed = exp.work(os.port0);
            os.port0.offline = true;
        });
    });
    if (os.port1) {
        stack.onCpu(1, [&](Cpu &cpu) {
            while (!ready)
                cpu.compute(500);
            auto &vcpu1 = *vm->vcpus()[1];
            vcpu1.setGuestOs(os.port1.get());
            vcpu1.run(cpu, [&](Cpu &) {
                os.port1->boot();
                exp.side(*os.port1);
                os.port1->offline = true;
            });
        });
    }
    return measure(stack.machine, exp, rm);
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
    return isArm(exp.platform) ? runNativeOn<ArmArch>(exp)
                              : runNativeOn<X86Arch>(exp);
}

RunMetrics
runVirt(const Experiment &exp)
{
    start(exp);
    return isArm(exp.platform) ? runVirtOn<ArmArch>(exp)
                              : runVirtOn<X86Arch>(exp);
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
