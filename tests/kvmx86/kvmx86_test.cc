/**
 * @file
 * KVM x86 hypervisor tests: run loop, EPT faulting, in-kernel APIC
 * emulation (EOI/ICR/timer), HLT blocking and event injection — the
 * comparison baseline's behaviors.
 */

#include <gtest/gtest.h>

#include "kvmx86/kvm_x86_stack.hh"

namespace kvmarm {
namespace {

using kvmx86::KvmX86;
using kvmx86::VCpuX86;
using kvmx86::VmX86;
using x86::X86Cpu;

class CountingGuestX86 : public x86::X86OsVectors
{
  public:
    void
    interrupt(X86Cpu &cpu, std::uint8_t vec) override
    {
        ++received[vec];
        cpu.memWrite(x86::kApicBase + x86::apic::EOI, 0, 4);
    }
    void syscall(X86Cpu &, std::uint32_t) override {}
    const char *name() const override { return "guest-x86"; }

    std::map<std::uint8_t, int> received;
};

class KvmX86Test : public ::testing::Test
{
  protected:
    void
    runOnCpu0(const std::function<void(X86Cpu &)> &body)
    {
        stack.onCpu(0, body);
        stack.machine.run();
    }

    kvmx86::KvmX86Stack stack{{.numCpus = 2, .ramSize = 128 * kMiB}};
    KvmX86 &kvm = stack.kvm;
    CountingGuestX86 guest;
};

TEST_F(KvmX86Test, GuestRunsAndHypercalls)
{
    runOnCpu0([&](X86Cpu &cpu) {
        auto vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        vcpu.run(cpu, [&](X86Cpu &c) {
            EXPECT_TRUE(c.nonRoot());
            c.vmcall(kvmx86::vmcallnr::kTestHypercall);
        });
        EXPECT_FALSE(cpu.nonRoot());
        EXPECT_EQ(vcpu.stats.counterValue("exit.vmcall"), 2u); // +stop
    });
}

TEST_F(KvmX86Test, EptFaultsPopulateMemory)
{
    runOnCpu0([&](X86Cpu &cpu) {
        auto vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        vcpu.run(cpu, [&](X86Cpu &c) {
            c.memWrite(0x5000, 0xAB, 8);
            EXPECT_EQ(c.memRead(0x5000, 8), 0xABu);
            c.memWrite(0x5008, 0xCD, 8); // same page: no second fault
            c.memWrite(0x9000, 0xEF, 8);
        });
        EXPECT_EQ(vcpu.stats.counterValue("fault.ept"), 2u);
        EXPECT_EQ(vm->mappedPages(), 2u);
        // Populating a faulted page again maps nothing new.
        EXPECT_TRUE(vm->handleEptFault(0x5010));
        EXPECT_EQ(vm->mappedPages(), 2u);
        // A GPA at or beyond the end of guest RAM is never translated.
        Addr hpa = 0;
        EXPECT_TRUE(vm->translate(0x9004, hpa));
        EXPECT_FALSE(vm->handleEptFault(vm->ramSize()));
        EXPECT_FALSE(vm->translate(vm->ramSize(), hpa));
        EXPECT_FALSE(vm->translate(vm->ramSize() + 0x5000, hpa));
        EXPECT_EQ(vm->mappedPages(), 2u);
    });
}

TEST_F(KvmX86Test, PageCrossingAccessReachesBothGuestPages)
{
    // Guest pages A and A + 1 fault into host frames that are not
    // adjacent, so the access's tail must be translated on its own.
    constexpr Addr kA = 0x20000;
    runOnCpu0([&](X86Cpu &cpu) {
        auto vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        vcpu.run(cpu, [&](X86Cpu &c) {
            c.memWrite(0x40000, 0x33, 4); // the frame above A's
            c.memWrite(kA + 0xFFC, 0x11111111, 4);
            c.memWrite(0x50000, 0x44, 4); // the frame between A's and A + 1's
            c.memWrite(kA + 0x1000, 0x22222222, 4);
            EXPECT_EQ(c.memRead(kA + 0xFFC, 8), 0x2222222211111111u);
            c.memWrite(kA + 0xFFE, 0x8877665544332211u, 8);
            EXPECT_EQ(c.memRead(kA + 0xFFC, 4), 0x22111111u);
            EXPECT_EQ(c.memRead(kA + 0x1000, 8), 0x887766554433u);
            // A crossing access faults in each page it touches.
            c.memWrite(0x7FFD, 0xAABBCCDD, 4);
            EXPECT_EQ(c.memRead(0x7FFD, 4), 0xAABBCCDDu);
        });
        Addr lo = 0, hi = 0;
        ASSERT_TRUE(vm->translate(kA, lo));
        ASSERT_TRUE(vm->translate(kA + 0x1000, hi));
        EXPECT_NE(lo + 0x1000, hi);
        EXPECT_EQ(vcpu.stats.counterValue("fault.ept"), 6u);
    });
}

TEST_F(KvmX86Test, GuestStateSurvivesResidency)
{
    runOnCpu0([&](X86Cpu &cpu) {
        auto vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        cpu.regs()[x86::Gpr::RBX] = 0x1234;
        vcpu.regs[x86::Gpr::RBX] = 0x5678;

        vcpu.run(cpu, [&](X86Cpu &c) {
            EXPECT_EQ(c.regs()[x86::Gpr::RBX], 0x5678u);
            c.regs()[x86::Gpr::RBX] = 0x9ABC;
            c.vmcall(kvmx86::vmcallnr::kTestHypercall);
            EXPECT_EQ(c.regs()[x86::Gpr::RBX], 0x9ABCu);
        });
        EXPECT_EQ(cpu.regs()[x86::Gpr::RBX], 0x1234u);
        EXPECT_EQ(vcpu.regs[x86::Gpr::RBX], 0x9ABCu);
    });
}

TEST_F(KvmX86Test, EoiTrapsAndIsEmulated)
{
    runOnCpu0([&](X86Cpu &cpu) {
        auto vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        vcpu.run(cpu, [&](X86Cpu &c) {
            c.setIf(true);
            vm->irqLine(c, 0xA5, 0);
            c.vmcall(kvmx86::vmcallnr::kTestHypercall); // entry injects
            c.compute(10);
            EXPECT_EQ(guest.received[0xA5], 1);
        });
        // The handler's EOI was an APIC-access exit (no vAPIC, paper §2).
        EXPECT_GE(vcpu.stats.counterValue("apic.access"), 1u);
        EXPECT_FALSE(vcpu.apic.anyInService());
    });
}

TEST_F(KvmX86Test, RepostedVectorIsDeliveredOnce)
{
    // CPU1 (root mode, like QEMU's iothread) raises the same vector twice
    // for VCPU0 before the kick IPI gets VCPU0 out of guest mode. The
    // virtual IRR holds it once, so the guest takes it once and EOIs
    // once.
    std::unique_ptr<VmX86> vm;
    bool ready = false, done = false;

    stack.onCpu(0, [&](X86Cpu &cpu) {
        vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        vcpu.run(cpu, [&](X86Cpu &c) {
            c.setIf(true);
            ready = true;
            while (!done)
                c.compute(200);
        });
        EXPECT_EQ(vcpu.stats.counterValue("apic.access"), 1u);
    });
    stack.onCpu(1, [&](X86Cpu &cpu) {
        while (!ready)
            cpu.compute(300);
        vm->irqLine(cpu, 0xA5, 0);
        vm->irqLine(cpu, 0xA5, 0);
        while (guest.received[0xA5] < 1)
            cpu.compute(300);
        cpu.compute(50000); // room for a second delivery
        done = true;
    });
    stack.machine.run();
    EXPECT_EQ(guest.received[0xA5], 1);
}

TEST_F(KvmX86Test, VirtualIpiAcrossVcpus)
{
    std::unique_ptr<VmX86> vm;
    CountingGuestX86 guest1;
    bool ready = false, done = false;

    stack.onCpu(0, [&](X86Cpu &cpu) {
        vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu0 = vm->addVcpu(0);
        vm->addVcpu(1);
        vcpu0.setGuestOs(&guest);
        vcpu0.run(cpu, [&](X86Cpu &c) {
            c.setIf(true);
            while (!ready)
                c.compute(200);
            c.memWrite(x86::kApicBase + x86::apic::ICR_HI,
                       std::uint64_t(1) << 56, 4);
            c.memWrite(x86::kApicBase + x86::apic::ICR_LO, 0xC1, 4);
            while (guest1.received[0xC1] < 1)
                c.compute(200);
            done = true;
        });
    });
    stack.onCpu(1, [&](X86Cpu &cpu) {
        while (!vm || vm->vcpus().size() < 2)
            cpu.compute(300);
        VCpuX86 &vcpu1 = *vm->vcpus()[1];
        vcpu1.setGuestOs(&guest1);
        vcpu1.run(cpu, [&](X86Cpu &c) {
            c.setIf(true);
            ready = true;
            while (!done)
                c.compute(150);
        });
    });
    stack.machine.run();
    EXPECT_EQ(guest1.received[0xC1], 1);
}

TEST_F(KvmX86Test, TimerCurCountsDownWhileArmed)
{
    runOnCpu0([&](X86Cpu &cpu) {
        auto vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        vcpu.run(cpu, [&](X86Cpu &c) {
            const Addr init = x86::kApicBase + x86::apic::TIMER_INIT;
            const Addr cur = x86::kApicBase + x86::apic::TIMER_CUR;
            c.setIf(true);
            c.memWrite(init, 1'000'000, 4);
            const std::uint64_t first = c.memRead(cur, 4);
            const std::uint64_t second = c.memRead(cur, 4);
            EXPECT_GT(first, 0u);
            EXPECT_LT(first, 1'000'000u);
            EXPECT_LT(second, first);

            // Expired: the timer fired once and reads 0.
            c.compute(1'000'000);
            EXPECT_EQ(guest.received[x86::kDefaultTimerVector], 1);
            EXPECT_EQ(c.memRead(cur, 4), 0u);

            // An initial count of 0 cancels an armed timer.
            c.memWrite(init, 1'000'000, 4);
            EXPECT_GT(c.memRead(cur, 4), 0u);
            c.memWrite(init, 0, 4);
            EXPECT_EQ(c.memRead(cur, 4), 0u);
            c.compute(2'000'000);
            EXPECT_EQ(guest.received[x86::kDefaultTimerVector], 1);
        });
    });
}

TEST_F(KvmX86Test, HltBlocksUntilInjection)
{
    runOnCpu0([&](X86Cpu &cpu) {
        auto vm = kvm.createVm(64 * kMiB);
        VCpuX86 &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest);
        vcpu.run(cpu, [&](X86Cpu &c) {
            c.setIf(true);
            // Guest timer via TSC deadline, then halt until it fires.
            c.wrmsrTscDeadline(c.rdtsc() + 40000);
            c.hlt();
            c.compute(10);
            EXPECT_EQ(guest.received[x86::kDefaultTimerVector], 1);
        });
        EXPECT_GE(vcpu.stats.counterValue("exit.hlt"), 1u);
        EXPECT_GE(vcpu.stats.counterValue("emul.tscdeadline"), 1u);
    });
}

} // namespace
} // namespace kvmarm
