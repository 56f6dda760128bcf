/**
 * @file
 * Virtual timer (paper §3.6) and MMIO path (paper §3.4/§4) tests: direct
 * guest timer programming, software-timer multiplexing while descheduled,
 * hardware-fire injection, MMIO decode fallback, in-kernel devices, and
 * the no-VGIC/vtimers configuration.
 */

#include <gtest/gtest.h>

#include "core/kvm_stack.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

class TimerGuest : public arm::OsVectors
{
  public:
    void
    irq(ArmCpu &cpu) override
    {
        std::uint32_t iar = static_cast<std::uint32_t>(cpu.memRead(
            ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        if ((iar & 0x3FF) == arm::kVirtTimerPpi) {
            ++timerIrqs;
            arm::TimerRegs off;
            cpu.writeVirtTimer(off); // oneshot
        }
        if ((iar & 0x3FF) != arm::kSpuriousIrq)
            cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
    }
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "timer-guest"; }

    void
    boot(ArmCpu &cpu)
    {
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
        cpu.memWrite(ArmMachine::kGicdBase + arm::gicd::ISENABLER,
                     0xFFFF | (1u << arm::kVirtTimerPpi));
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
        cpu.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
        cpu.setIrqMasked(false);
    }

    int timerIrqs = 0;
};

class VtimerMmioTest : public ::testing::Test
{
  protected:
    void
    build(bool vgic_vtimers)
    {
        core::KvmConfig kc;
        kc.useVgic = vgic_vtimers;
        kc.useVtimers = vgic_vtimers;
        stack = std::make_unique<core::KvmStack>(core::KvmStack::Config{
            .numCpus = 1, .ramSize = 128 * kMiB, .kvm = kc});
    }

    void
    runGuest(const std::function<void(ArmCpu &, core::Vm &)> &body)
    {
        stack->onCpu(0, [&, body](ArmCpu &cpu) {
            vm = stack->kvm.createVm(32 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&guest);
            vcpu.run(cpu,
                     [&](ArmCpu &c) { body(c, *vm); });
        });
        stack->machine.run();
    }

    std::unique_ptr<core::KvmStack> stack;
    std::unique_ptr<core::Vm> vm;
    TimerGuest guest;
};

TEST_F(VtimerMmioTest, GuestTimerFiresWhileRunning)
{
    build(true);
    runGuest([&](ArmCpu &c, core::Vm &) {
        guest.boot(c);
        arm::TimerRegs t;
        t.enable = true;
        t.cval = c.readCntvct() + 20000;
        c.writeVirtTimer(t); // direct, no trap (paper §3.6)
        auto exits_before = vm->vcpus()[0]->stats.counterValue("exit.timer");
        EXPECT_EQ(exits_before, 0u);
        c.compute(60000);
        EXPECT_EQ(guest.timerIrqs, 1);
    });
}

TEST_F(VtimerMmioTest, DescheduledTimerFiresViaSoftTimer)
{
    build(true);
    runGuest([&](ArmCpu &c, core::Vm &) {
        guest.boot(c);
        arm::TimerRegs t;
        t.enable = true;
        t.cval = c.readCntvct() + 30000;
        c.writeVirtTimer(t);
        // WFI: the VCPU is descheduled with the timer unexpired; KVM
        // programs a host software timer and injects on expiry.
        c.wfi();
        c.compute(10); // delivery point after the ERET
        EXPECT_EQ(guest.timerIrqs, 1);
    });
    EXPECT_GE(vm->vcpus()[0]->stats.counterValue("emul.wfi"), 1u);
}

TEST_F(VtimerMmioTest, NoVtimersTimerAccessesTrapToUserspace)
{
    build(false);
    runGuest([&](ArmCpu &c, core::Vm &) {
        guest.boot(c);
        auto &stats = vm->vcpus()[0]->stats;
        std::uint64_t before = stats.counterValue("vtimer.trapped");
        (void)c.readCntvct(); // traps: emulated in user space
        EXPECT_EQ(stats.counterValue("vtimer.trapped"), before + 1);

        arm::TimerRegs t;
        t.enable = true;
        t.cval = c.readCntvct() + 30000;
        c.writeVirtTimer(t); // traps; QEMU arms a host timer
        c.compute(80000);
        EXPECT_EQ(guest.timerIrqs, 1); // delivered via HCR.VI injection
    });
}

TEST_F(VtimerMmioTest, InKernelDeviceAvoidsUserspace)
{
    build(true);
    runGuest([&](ArmCpu &c, core::Vm &vmref) {
        std::uint64_t dev_value = 0;
        vmref.addKernelDevice(
            core::Vm::kKernelTestDevBase, 0x1000,
            [&](bool is_write, Addr off, std::uint64_t v,
                unsigned) -> std::uint64_t {
                if (is_write)
                    dev_value = v + off;
                return dev_value;
            });
        c.memWrite(core::Vm::kKernelTestDevBase + 8, 34, 4);
        EXPECT_EQ(c.memRead(core::Vm::kKernelTestDevBase, 4), 42u);
        auto &stats = vm->vcpus()[0]->stats;
        EXPECT_EQ(stats.counterValue("mmio.kernel"), 2u);
        EXPECT_EQ(stats.counterValue("mmio.user"), 0u);
    });
}

TEST_F(VtimerMmioTest, MmioWithoutSyndromeIsDecoded)
{
    build(true);
    runGuest([&](ArmCpu &c, core::Vm &vmref) {
        bool wrote = false;
        vmref.addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                              [&](bool w, Addr, std::uint64_t,
                                  unsigned) -> std::uint64_t {
                                  wrote |= w;
                                  return 0;
                              });
        // isv=false models the old-style instructions that do not
        // populate the syndrome: KVM decodes from memory (paper §4).
        c.memWrite(core::Vm::kKernelTestDevBase, 7, 4, /*isv=*/false);
        EXPECT_TRUE(wrote);
        EXPECT_EQ(vm->vcpus()[0]->stats.counterValue("mmio.decoded"), 1u);
    });
}

TEST_F(VtimerMmioTest, UnbackedMmioGoesToUserspace)
{
    build(true);
    runGuest([&](ArmCpu &c, core::Vm &vmref) {
        core::MmioExit seen;
        vmref.setUserMmioHandler(
            [&](ArmCpu &, core::VCpu &, core::MmioExit &exit) {
                seen = exit;
                exit.handled = true;
                exit.data = 0x77;
            });
        std::uint64_t v = c.memRead(0x0C000010, 4);
        EXPECT_EQ(v, 0x77u);
        EXPECT_EQ(seen.ipa, 0x0C000010u);
        EXPECT_FALSE(seen.isWrite);
    });
}

TEST_F(VtimerMmioTest, PsciSystemOffStopsAllVcpus)
{
    build(true);
    runGuest([&](ArmCpu &c, core::Vm &) {
        c.hvc(core::hvc::kPsciOff);
        EXPECT_TRUE(vm->vcpus()[0]->stopRequested);
    });
}

} // namespace
} // namespace kvmarm
