#include "vdev/qemu.hh"

#include "arm/machine.hh"
#include "sim/logging.hh"
#include "x86/machine.hh"

namespace kvmarm::vdev {

using arm::ArmMachine;
using x86::X86Machine;

DevProfile
usbEthProfile()
{
    // 100 Mb Ethernet behind the Arndale's USB bus: ~17 cycles/byte at
    // 1.7 GHz plus per-packet host controller overhead.
    return {"usb-eth", 16000, 17, 80};
}

DevProfile
ssdProfile()
{
    // External SSD: ~50 us access, ~250 MB/s -> ~7 cycles/byte.
    return {"ssd", 85000, 7, 80};
}

QemuCore::QemuCore(Addr uart_base, Addr virtio_base)
    : uartBase_(uart_base), virtioBase_(virtio_base), uart_(120)
{
}

void
QemuCore::addDevice(unsigned slot, const DevProfile &profile)
{
    if (devs_.size() <= slot)
        devs_.resize(slot + 1);
    devs_[slot] = {true, profile, 0};
}

std::uint64_t
QemuCore::completed(unsigned slot) const
{
    return slot < devs_.size() ? devs_[slot].completed : 0;
}

QemuArm::QemuArm(core::Kvm &kvm, core::Vm &vm)
    : QemuCore(ArmMachine::kUartBase, ArmMachine::kVirtioBase), kvm_(kvm),
      vm_(vm)
{
    vm_.setUserMmioHandler(
        [this](arm::ArmCpu &cpu, core::VCpu &, core::MmioExit &exit) {
            handleMmio(cpu, exit.ipa, exit, [this](Cycles done) {
                kvm_.machine().gicd().raiseSpi(kIothreadSpi, done);
            });
        });
    kvm_.host().requestIrq(kIothreadSpi, [this](arm::ArmCpu &cpu, IrqId) {
        drainCompletions(cpu, [this, &cpu](unsigned slot,
                                           std::uint64_t count) {
            // DMA the used counter into guest memory (virtio used ring).
            Addr ipa = ArmMachine::kRamBase + kUsedPageOffset + slot * 8;
            vm_.stage2().handleRamFault(ipa);
            if (auto pa = vm_.stage2().ipaToPa(ipa))
                kvm_.machine().ram().write(*pa, count, 8);
            vm_.irqLine(cpu, kDevSpiBase + slot);
        });
    });
    kvm_.host().enableIrq(kvm_.machine().cpu(0), kIothreadSpi);
}

QemuX86::QemuX86(kvmx86::KvmX86 &kvm, kvmx86::VmX86 &vm)
    : QemuCore(X86Machine::kUartMmioBase, X86Machine::kVirtioBase),
      kvm_(kvm), vm_(vm)
{
    vm_.setUserMmioHandler([this](x86::X86Cpu &cpu, kvmx86::VCpuX86 &,
                                  kvmx86::X86MmioExit &exit) {
        if (exit.isPortIo) {
            // Console on a port: swallow writes.
            cpu.compute(kQemuDeviceWork);
            exit.handled = true;
            return;
        }
        handleMmio(cpu, exit.gpa, exit, [this, &cpu](Cycles done) {
            kvm_.machine().apic().postVector(cpu.id(), kIothreadVector,
                                             done);
        });
    });
    kvm_.host().requestVector(kIothreadVector, [this](x86::X86Cpu &cpu) {
        drainCompletions(cpu, [this, &cpu](unsigned slot,
                                           std::uint64_t count) {
            Addr gpa = kUsedPageOffset + slot * 8;
            vm_.handleEptFault(gpa);
            Addr hpa = 0;
            if (vm_.translate(gpa, hpa))
                kvm_.machine().ram().write(hpa, count, 8);
            vm_.irqLine(cpu, kDevVectorBase + slot, 0);
        });
    });
}

} // namespace kvmarm::vdev
