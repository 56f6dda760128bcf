/**
 * @file
 * Device emulation tests: UART capture, the kick/complete device model
 * (latency math, used-counter DMA, interrupt coalescing), and the QEMU
 * iothread injection path into a VM.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm_stack.hh"
#include "kvmx86/kvm_x86_stack.hh"
#include "sim/logging.hh"
#include "sim/ring_channel.hh"
#include "vdev/model_dev.hh"
#include "vdev/qemu.hh"
#include "vdev/vring.hh"
#include "workload/ring_driver.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

TEST(Uart, CapturesOutput)
{
    vdev::Uart uart(100);
    uart.write(0, vdev::uart::DR, 'h', 4);
    uart.write(0, vdev::uart::DR, 'i', 4);
    EXPECT_EQ(uart.output(), "hi");
    EXPECT_EQ(uart.accessLatency(), 100u);
    uart.clear();
    EXPECT_TRUE(uart.output().empty());
}

TEST(ModelDevice, LatencyIsFixedPlusPerByte)
{
    vdev::DevProfile p{"dev", 1000, 10, 50};
    ArmMachine machine(ArmMachine::Config{
        .numCpus = 1, .ramSize = 32 * kMiB, .hwVgic = true,
        .hwVtimers = true, .clockHz = 1.7e9, .cost = {}});
    int irqs = 0;
    Cycles fired_at = 0;
    vdev::ModelDevice dev(p, machine.cpuBase(0), [&](Cycles when) {
        ++irqs;
        fired_at = when;
    });
    EXPECT_EQ(dev.opLatency(100), 2000u);

    machine.cpu(0).setEntry([&] {
        ArmCpu &cpu = machine.cpu(0);
        cpu.compute(500);
        dev.write(0, vdev::modeldev::KICK, 100, 4);
        cpu.compute(5000);
        EXPECT_EQ(irqs, 1);
        EXPECT_EQ(dev.completed(), 1u);
        EXPECT_EQ(dev.read(0, vdev::modeldev::STATUS, 4), 1u);
        EXPECT_GE(fired_at, 2500u);
    });
    machine.run();
}

TEST(ModelDevice, DmaWritesUsedCounter)
{
    vdev::DevProfile p{"dev", 100, 0, 50};
    ArmMachine machine(ArmMachine::Config{
        .numCpus = 1, .ramSize = 32 * kMiB, .hwVgic = true,
        .hwVtimers = true, .clockHz = 1.7e9, .cost = {}});
    Addr used = ArmMachine::kRamBase + vdev::kUsedPageOffset;
    vdev::ModelDevice dev(
        p, machine.cpuBase(0), [](Cycles) {},
        [&](std::uint64_t completed) {
            machine.ram().write(used, completed, 8);
        });
    machine.cpu(0).setEntry([&] {
        // Three kicks in a burst: even if interrupts coalesce, the used
        // counter carries the full count (virtio semantics).
        dev.write(0, vdev::modeldev::KICK, 0, 4);
        dev.write(0, vdev::modeldev::KICK, 0, 4);
        dev.write(0, vdev::modeldev::KICK, 0, 4);
        machine.cpu(0).compute(1000);
        EXPECT_EQ(machine.ram().read(used, 8), 3u);
    });
    machine.run();
}

// ------------------------------------------------------------------ QEMU

/** What a QEMU test guest saw of the device interrupts. */
struct DevIrqLog
{
    unsigned lastIrq = 0;
    std::uint64_t used = 0; //!< the slot's used counter, read on its irq

    /** Interrupt @p irq arrived: if it is device slot (irq - @p dev_base)'s,
     *  read that slot's used counter from guest RAM at @p ram_base. */
    template <class Cpu>
    void
    record(Cpu &cpu, unsigned irq, unsigned dev_base, Addr ram_base)
    {
        if (irq < dev_base || irq >= dev_base + 8)
            return;
        lastIrq = irq;
        used = cpu.memRead(
            ram_base + vdev::kUsedPageOffset + (irq - dev_base) * 8, 8);
    }
};

/** The ARM half of the QEMU test. */
struct ArmQemuCase
{
    using Stack = core::KvmStack;
    using Qemu = vdev::QemuArm;
    static constexpr Addr kUartBase = ArmMachine::kUartBase;
    static constexpr Addr kVirtioBase = ArmMachine::kVirtioBase;
    static constexpr unsigned kDevIrqBase = vdev::kDevSpiBase;

    class Guest : public arm::OsVectors, public DevIrqLog
    {
      public:
        void
        irq(ArmCpu &cpu) override
        {
            auto iar = static_cast<std::uint32_t>(
                cpu.memRead(ArmMachine::kGiccBase + arm::gicc::IAR, 4));
            record(cpu, iar & 0x3FF, kDevIrqBase, ArmMachine::kRamBase);
            if ((iar & 0x3FF) != arm::kSpuriousIrq)
                cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
        }
        void svc(ArmCpu &, std::uint32_t) override {}
        bool pageFault(ArmCpu &, Addr, bool, bool) override
        {
            return false;
        }
        const char *name() const override { return "dev-guest"; }

        /** Enable and target the device SPIs, then the CPU interface. */
        void
        boot(ArmCpu &c)
        {
            c.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
            c.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER + 4,
                       0xFFu << (kDevIrqBase - 32));
            c.memWrite(ArmMachine::kGicdBase + arm::gicd::ITARGETSR +
                           kDevIrqBase,
                       0x01010101);
            c.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
            c.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
            c.setIrqMasked(false);
        }
    };

    /** ARM has no port I/O. @return the port writes made. */
    static unsigned consoleOnPort(ArmCpu &) { return 0; }
};

/** The x86 half of the QEMU test. */
struct X86QemuCase
{
    using Stack = kvmx86::KvmX86Stack;
    using Qemu = vdev::QemuX86;
    static constexpr Addr kUartBase = x86::X86Machine::kUartMmioBase;
    static constexpr Addr kVirtioBase = x86::X86Machine::kVirtioBase;
    static constexpr unsigned kDevIrqBase = vdev::kDevVectorBase;

    class Guest : public x86::X86OsVectors, public DevIrqLog
    {
      public:
        void
        interrupt(x86::X86Cpu &cpu, std::uint8_t vector) override
        {
            record(cpu, vector, kDevIrqBase, x86::X86Machine::kRamBase);
            cpu.memWrite(x86::kApicBase + x86::apic::EOI, 0, 4);
        }
        void syscall(x86::X86Cpu &, std::uint32_t) override {}
        const char *name() const override { return "dev-guest-x86"; }

        void boot(x86::X86Cpu &c) { c.setIf(true); }
    };

    /** A console write on the legacy COM1 port, which QEMU swallows.
     *  @return the port writes made. */
    static unsigned
    consoleOnPort(x86::X86Cpu &c)
    {
        c.portIo(0x3F8, true, 'P');
        return 1;
    }
};

/** Drive one 1-CPU VM's UART, port console and device slot 1 through
 *  @p Case's QEMU. */
template <class Case>
void
emulateUartAndDevices()
{
    constexpr Addr kSlot1 = Case::kVirtioBase + 0x1000;
    typename Case::Stack::Config config;
    config.numCpus = 1;
    config.ramSize = 256 * kMiB;
    typename Case::Stack stack(config);
    typename Case::Guest guest;
    unsigned port_writes = 0;

    stack.onCpu(0, [&](auto &cpu) {
        auto vm = stack.kvm.createVm(64 * kMiB);
        auto &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        typename Case::Qemu qemu(stack.kvm, *vm);
        qemu.addDevice(1, vdev::usbEthProfile());

        vcpu.run(cpu, [&](auto &c) {
            guest.boot(c);
            // UART through user space; TX is always ready.
            c.memWrite(Case::kUartBase + vdev::uart::DR, 'V', 4);
            EXPECT_EQ(c.memRead(Case::kUartBase + vdev::uart::FR, 4), 0u);
            testing::internal::CaptureStderr();
            port_writes = Case::consoleOnPort(c);
            EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

            // Slot 3 has no device: QEMU leaves the access unhandled.
            testing::internal::CaptureStderr();
            (void)c.memRead(Case::kVirtioBase + 0x3000, 4);
            const std::string warned = testing::internal::GetCapturedStderr();
            EXPECT_NE(warned.find("qemu: unhandled MMIO read"),
                      std::string::npos)
                << warned;

            // Kick slot 1 and wait (boundedly) for its completion irq.
            c.memWrite(kSlot1 + vdev::modeldev::KICK, 256, 4);
            for (int i = 0; i < 1000 && guest.used < 1; ++i)
                c.compute(2000);
            EXPECT_EQ(c.memRead(kSlot1 + vdev::modeldev::STATUS, 4), 1u);
        });

        EXPECT_EQ(qemu.uart().output(), "V");
        EXPECT_EQ(qemu.completed(1), 1u);
        // The completion travelled host iothread -> KVM_IRQ_LINE -> guest
        // as slot 1's interrupt, after the used counter was DMAed.
        EXPECT_EQ(guest.lastIrq, Case::kDevIrqBase + 1);
        EXPECT_EQ(guest.used, 1u);
        // UART write and read, the unclaimed read, kick, status read,
        // and any port write each exited to user space.
        EXPECT_EQ(vcpu.stats.counterValue("mmio.user"), 5u + port_writes);
    });
    stack.machine.run();
}

TEST(Qemu, EmulatesUartAndDevicesForVm)
{
    {
        SCOPED_TRACE("ARM");
        emulateUartAndDevices<ArmQemuCase>();
    }
    SCOPED_TRACE("x86");
    emulateUartAndDevices<X86QemuCase>();
}

// ------------------------------------------------------------------ vring

/** One VM of a connected pair: full stack with a vring guest driver,
 *  paced by the window protocol so two of these can ping-pong. */
struct RingStack : core::KvmStack
{
    RingStack(RingChannel::Endpoint &ep, bool initiator, unsigned rounds)
        : KvmStack({.numCpus = 1, .ramSize = 128 * kMiB, .kvm = {}})
    {
        pacer = std::make_unique<RingPacer>(
            machine, initiator ? "ping" : "pong");
        pacer->attach(ep);

        onCpu(0, [this, &ep, initiator, rounds](ArmCpu &cpu) {
            vm = kvm.createVm(64 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            guest = std::make_unique<wl::RingGuestOs>();
            vcpu.setGuestOs(guest.get());
            dev = std::make_unique<vdev::VringDevice>(kvm, *vm, ep);

            vcpu.run(cpu, [this, initiator, rounds](ArmCpu &c) {
                guest->init(c);
                guest->pingPong(c, rounds, initiator, 48);
            });
        });
    }

    bool step() { return pacer->step() == RingPacer::Step::Done; }

    std::unique_ptr<RingPacer> pacer;
    std::unique_ptr<wl::RingGuestOs> guest;
    std::unique_ptr<core::Vm> vm;
    std::unique_ptr<vdev::VringDevice> dev;
};

/** Round-robin two stacks to completion; fails on a wedged protocol. */
void
driveToCompletion(RingStack &a, RingStack &b)
{
    bool da = false, db = false;
    for (int rounds = 0; !(da && db); ++rounds) {
        ASSERT_LT(rounds, 1'000'000) << "ring protocol wedged";
        std::uint64_t w = a.pacer->windowsRun() + b.pacer->windowsRun();
        if (!da)
            da = a.step();
        if (!db)
            db = b.step();
        ASSERT_TRUE(da || db ||
                    a.pacer->windowsRun() + b.pacer->windowsRun() != w)
            << "no progress in a full round";
    }
}

TEST(Vring, GuestPingPongWalksTheFullTrapPath)
{
    const unsigned rounds = 6;
    RingChannel ch("pp", 20'000);
    RingStack a(ch.end(0), true, rounds);
    RingStack b(ch.end(1), false, rounds);
    driveToCompletion(a, b);

    // Every message crossed via doorbell MMIO trap + vGIC SPI on both
    // sides: TX accepted == rounds, RX delivered == rounds, and both SPIs
    // were actually taken by the guest's IRQ handler.
    EXPECT_EQ(a.dev->txCount(), rounds);
    EXPECT_EQ(a.dev->rxCount(), rounds);
    EXPECT_EQ(b.dev->txCount(), rounds);
    EXPECT_EQ(b.dev->rxCount(), rounds);
    EXPECT_GE(a.guest->txIrqs(), 1u);
    EXPECT_GE(a.guest->rxIrqs(), 1u);
    EXPECT_GE(b.guest->rxIrqs(), 1u);
    EXPECT_EQ(a.guest->consumed(), rounds);
    EXPECT_EQ(b.guest->consumed(), rounds);
    // The responder echoes byte-identical payloads, so both guests
    // consumed the same byte stream.
    EXPECT_EQ(a.guest->checksum(), b.guest->checksum());
    EXPECT_EQ(ch.messagesSent(0), rounds);
    EXPECT_EQ(ch.messagesSent(1), rounds);
}

TEST(Vring, SnapshotWhileRingConnectedIsFatalBothDirections)
{
    // In-flight ring messages live outside either machine: snapshotting
    // EITHER end of a connected pair must fatal with a ring diagnostic,
    // never silently drop messages.
    RingChannel ch("snapring", 20'000);
    RingStack a(ch.end(0), true, 4);
    RingStack b(ch.end(1), false, 4);
    // Step both sides a few windows so the vring devices exist and the
    // machines are mid-conversation.
    for (int i = 0; i < 400 && !(a.dev && b.dev); ++i) {
        a.step();
        b.step();
    }
    ASSERT_TRUE(a.dev && b.dev);

    try {
        a.machine.takeSnapshot();
        FAIL() << "snapshot of the sending machine must fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("snapring"),
                  std::string::npos)
            << "diagnostic must name the ring: " << e.what();
    }
    try {
        b.machine.takeSnapshot();
        FAIL() << "snapshot of the receiving machine must fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("snapring"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Vring, EnforceModeHooksFireOnDoorbellAndDelivery)
{
    // Under KVMARM_CHECK=enforce every doorbell MMIO and every delivery
    // must fan out through each machine's private invariant engine (the
    // ring-order rule), and a clean ping-pong must produce zero
    // violations.
    check::ScopedCheckMode scoped(check::CheckMode::Enforce);
    const unsigned rounds = 4;
    RingChannel ch("chk", 20'000);
    RingStack a(ch.end(0), true, rounds);
    RingStack b(ch.end(1), false, rounds);
    driveToCompletion(a, b);

    for (RingStack *s : {&a, &b}) {
        check::InvariantEngine *eng = s->machine.checkEngine();
        ASSERT_NE(eng, nullptr);
        // rounds doorbells + rounds deliveries at minimum, on top of the
        // world-switch events the run generates anyway.
        EXPECT_GE(eng->eventCount(), 2u * rounds);
        EXPECT_TRUE(eng->violations().empty());
    }
    EXPECT_EQ(a.dev->txCount(), rounds);
    EXPECT_EQ(b.dev->rxCount(), rounds);
}

} // namespace
} // namespace kvmarm
