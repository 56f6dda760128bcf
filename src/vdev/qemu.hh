/**
 * @file
 * QEMU-shaped user-space device emulation (paper §3.4): MMIO exits from
 * the VM are routed here; device completions are queued and delivered
 * through a host "iothread" interrupt, whose handler injects the guest's
 * virtual interrupt via the KVM_IRQ_LINE path — exactly the
 * QEMU-eventfd-KVM plumbing of the real stack.
 */

#ifndef KVMARM_VDEV_QEMU_HH
#define KVMARM_VDEV_QEMU_HH

#include <deque>
#include <vector>

#include "core/kvm.hh"
#include "kvmx86/kvm_x86.hh"
#include "vdev/model_dev.hh"
#include "vdev/uart.hh"

namespace kvmarm::vdev {

/** Physical SPI used to signal "QEMU iothread has work" to the host. */
inline constexpr IrqId kIothreadSpi = 40;
/** x86 host vector for the same purpose. */
inline constexpr std::uint8_t kIothreadVector = 0xE2;

/** First guest SPI used for emulated devices (slot i -> kDevSpiBase+i). */
inline constexpr IrqId kDevSpiBase = 48;
/** First guest vector for emulated devices on x86. */
inline constexpr std::uint8_t kDevVectorBase = 0xA0;

/** Cycles QEMU spends in its device model per MMIO access. */
inline constexpr Cycles kQemuDeviceWork = 650;
/** Host-side eventfd/irqfd processing per completion. */
inline constexpr Cycles kIothreadWork = 420;

/**
 * What QEMU does the same way on every architecture: the device table,
 * the UART and virtio-slot decode of a user-space MMIO exit, and the
 * queue of completions its iothread drains. QemuArm and QemuX86 supply
 * the hooks: how a completion signals the iothread, and how the iothread
 * DMAs the used counter and injects the guest's interrupt.
 */
class QemuCore
{
  public:
    /** Emulate a kick/complete device in MMIO slot @p slot; its
     *  completions raise the guest interrupt of that slot. */
    void addDevice(unsigned slot, const DevProfile &profile);

    Uart &uart() { return uart_; }
    std::uint64_t completed(unsigned slot) const;

  protected:
    QemuCore(Addr uart_base, Addr virtio_base);

    /** Emulate the user-space MMIO exit @p exit at guest address @p gpa.
     *  A kick completes after the device's latency: the completion is
     *  queued for the iothread and @p signal(done) raises its interrupt.
     *  An address no device claims is left unhandled. */
    template <class Cpu, class Exit, class Signal>
    void
    handleMmio(Cpu &cpu, Addr gpa, Exit &exit, Signal signal)
    {
        cpu.compute(kQemuDeviceWork);
        exit.handled = true;
        if (gpa >= uartBase_ && gpa < uartBase_ + 0x1000) {
            Addr off = gpa - uartBase_;
            if (exit.isWrite)
                uart_.write(cpu.id(), off, exit.data, exit.len);
            else
                exit.data = uart_.read(cpu.id(), off, exit.len);
            return;
        }
        Addr rel = gpa - virtioBase_;
        if (gpa < virtioBase_ || rel / 0x1000 >= devs_.size() ||
            !devs_[rel / 0x1000].present) {
            exit.handled = false;
            return;
        }
        auto slot = static_cast<unsigned>(rel / 0x1000);
        Addr off = rel % 0x1000;
        EmuDev &dev = devs_[slot];
        if (exit.isWrite && off == modeldev::KICK) {
            Cycles done = cpu.now() + dev.profile.fixedLatency +
                          exit.data * dev.profile.cyclesPerByte;
            cpu.events().schedule(done, [this, slot, done, signal] {
                completions_.push_back(slot);
                signal(done);
            });
        } else if (!exit.isWrite && off == modeldev::STATUS) {
            exit.data = dev.completed;
        }
    }

    /** The host iothread: per queued completion, charge its host-side
     *  work and count it, then @p complete(slot, count) DMAs the used
     *  counter and injects the guest's interrupt (paper §3.5). */
    template <class Cpu, class Complete>
    void
    drainCompletions(Cpu &cpu, Complete complete)
    {
        while (!completions_.empty()) {
            unsigned slot = completions_.front();
            completions_.pop_front();
            cpu.compute(kIothreadWork);
            complete(slot, ++devs_[slot].completed);
        }
    }

  private:
    struct EmuDev
    {
        bool present = false;
        DevProfile profile;
        std::uint64_t completed = 0;
    };

    Addr uartBase_;
    Addr virtioBase_;
    Uart uart_;
    std::vector<EmuDev> devs_;
    std::deque<unsigned> completions_; //!< slots with a pending irq
};

/** User-space device emulation for one ARM VM. */
class QemuArm : public QemuCore
{
  public:
    /** Installs itself as @p vm's user-space MMIO handler and registers
     *  the iothread interrupt with the host kernel. Slot i's completions
     *  raise guest SPI kDevSpiBase + i. */
    QemuArm(core::Kvm &kvm, core::Vm &vm);

  private:
    core::Kvm &kvm_;
    core::Vm &vm_;
};

/** User-space device emulation for one x86 VM, plus a port-IO console.
 *  Slot i's completions raise guest vector kDevVectorBase + i. */
class QemuX86 : public QemuCore
{
  public:
    QemuX86(kvmx86::KvmX86 &kvm, kvmx86::VmX86 &vm);

  private:
    kvmx86::KvmX86 &kvm_;
    kvmx86::VmX86 &vm_;
};

} // namespace kvmarm::vdev

#endif // KVMARM_VDEV_QEMU_HH
