/**
 * @file
 * x86 machine model tests: VMX transitions with hardware state swap, EPT
 * routing, APIC behavior (IPIs, EOI, timer), rdtsc/TSC offsetting, and
 * the exit taxonomy the comparison depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "x86/machine.hh"

namespace kvmarm::x86 {
namespace {

/** Minimal EPT: identity over the first N bytes. */
class IdentityEpt : public EptView
{
  public:
    explicit IdentityEpt(Addr limit) : limit_(limit) {}
    bool
    translate(Addr gpa, Addr &hpa) override
    {
        if (gpa >= limit_)
            return false;
        hpa = gpa;
        return true;
    }

  private:
    Addr limit_;
};

/** Records exits and re-enters (or stops). */
class RecordingVmx : public VmxHandler
{
  public:
    void
    vmexit(X86Cpu &cpu, const ExitInfo &info) override
    {
        exits.push_back(info);
        if (info.reason == ExitReason::Vmcall && info.vmcallNr == 0xDEAD)
            cpu.setStopVmx(true);
        if (info.reason == ExitReason::EptViolation ||
            info.reason == ExitReason::ApicAccess ||
            info.reason == ExitReason::IoInstruction) {
            cpu.completeMmio(0x99);
        }
    }
    const char *name() const override { return "recording-vmx"; }

    std::vector<ExitInfo> exits;
};

class X86Test : public ::testing::Test
{
  protected:
    X86Test()
    {
        X86Machine::Config mc;
        mc.numCpus = 2;
        mc.ramSize = 64 * kMiB;
        machine = std::make_unique<X86Machine>(mc);
        machine->cpu(0).setVmxHandler(&vmx);
    }

    void
    run(const std::function<void()> &body)
    {
        machine->cpu(0).setEntry(body);
        machine->run();
    }

    X86Cpu &cpu() { return machine->cpu(0); }

    std::unique_ptr<X86Machine> machine;
    RecordingVmx vmx;
    IdentityEpt ept{32 * kMiB};
};

TEST_F(X86Test, VmcsSwapsFullStateInHardware)
{
    run([&] {
        cpu().regs()[Gpr::RAX] = 0x1111; // host value
        cpu().regs()[Sysreg::CR3] = 0x2222;
        cpu().vmcs().guestRegs[Gpr::RAX] = 0x3333;
        cpu().vmcs().guestRegs[Sysreg::CR3] = 0x4444;
        cpu().vmcs().ept = &ept;

        Cycles t0 = cpu().now();
        cpu().vmentry();
        // Guest state loaded wholesale at fixed hardware cost.
        EXPECT_EQ(cpu().regs()[Gpr::RAX], 0x3333u);
        EXPECT_EQ(cpu().regs()[Sysreg::CR3], 0x4444u);
        EXPECT_TRUE(cpu().nonRoot());
        EXPECT_EQ(cpu().now() - t0, machine->cost().vmentryHw);

        cpu().regs()[Gpr::RAX] = 0x5555; // guest modifies
        cpu().vmcall(0xDEAD);            // exit and stop
        EXPECT_FALSE(cpu().nonRoot());
        EXPECT_EQ(cpu().regs()[Gpr::RAX], 0x1111u); // host restored
        EXPECT_EQ(cpu().vmcs().guestRegs[Gpr::RAX], 0x5555u);
    });
}

TEST_F(X86Test, EptViolationExitsWithGpa)
{
    run([&] {
        cpu().vmcs().ept = &ept;
        cpu().vmentry();
        cpu().memWrite(10 * kMiB, 7, 8); // mapped: no exit
        EXPECT_TRUE(vmx.exits.empty());
        (void)cpu().memRead(40 * kMiB + 0x24, 4); // beyond the EPT
        ASSERT_EQ(vmx.exits.size(), 1u);
        EXPECT_EQ(vmx.exits[0].reason, ExitReason::EptViolation);
        EXPECT_EQ(vmx.exits[0].gpa, 40 * kMiB + 0x24);
        cpu().vmcall(0xDEAD);
    });
}

TEST_F(X86Test, RootModePageCrossingAccessReachesBothPagesAndChargesEach)
{
    // Root mode reaches RAM on the identity, one access per page touched,
    // as every split access is.
    constexpr Addr kA = 0x30000;
    run([&] {
        ASSERT_FALSE(cpu().nonRoot());
        cpu().memWrite(kA + 0x1000, 0x22222222, 4);
        Cycles t0 = cpu().now();
        cpu().memWrite(kA + 0xFFC, 0x8877665544332211u, 8);
        EXPECT_EQ(cpu().now() - t0, 2 * Bus::kRamLatency);
        EXPECT_EQ(machine->ram().read(kA + 0xFFC, 4), 0x44332211u);
        EXPECT_EQ(machine->ram().read(kA + 0x1000, 4), 0x88776655u);
        t0 = cpu().now();
        EXPECT_EQ(cpu().memRead(kA + 0xFFE, 4), 0x66554433u);
        EXPECT_EQ(cpu().now() - t0, 2 * Bus::kRamLatency);
        t0 = cpu().now();
        EXPECT_EQ(cpu().memRead(kA + 0xFF8, 8), 0x4433221100000000u);
        EXPECT_EQ(cpu().now() - t0, Bus::kRamLatency);
    });
}

TEST_F(X86Test, ApicAccessAlwaysExitsInGuest)
{
    run([&] {
        cpu().vmcs().ept = &ept;
        cpu().vmentry();
        cpu().memWrite(kApicBase + apic::EOI, 0, 4);
        ASSERT_EQ(vmx.exits.size(), 1u);
        EXPECT_EQ(vmx.exits[0].reason, ExitReason::ApicAccess);
        EXPECT_EQ(vmx.exits[0].apicOffset, apic::EOI);
        EXPECT_TRUE(vmx.exits[0].isWrite);
        cpu().vmcall(0xDEAD);
        // Natively the same access goes straight to the device. With IF
        // clear the posted vector stays pending until accepted by hand.
        machine->apic().postVector(0, 0x40, cpu().now());
        cpu().compute(1);
        ASSERT_EQ(machine->apic().acceptVector(0), 0x40);
        cpu().memWrite(kApicBase + apic::EOI, 0, 4);
        EXPECT_FALSE(machine->apic().state(0).anyInService());
    });
}

TEST_F(X86Test, InjectionArmedInGuestIsTakenAtTheNextCharge)
{
    // KVM x86 can arm the VMCS injection from an event that runs while
    // the guest executes (a host timer delivering a virtual interrupt to
    // the resident VCPU). The Inject pin follows at once, so the next
    // charge takes the vector; vmexit drops the pin.
    class GuestOs : public X86OsVectors
    {
      public:
        void interrupt(X86Cpu &, std::uint8_t vec) override { taken = vec; }
        void syscall(X86Cpu &, std::uint32_t) override {}
        const char *name() const override { return "guest-os"; }
        std::uint8_t taken = 0;
    } guest;
    run([&] {
        cpu().vmcs().ept = &ept;
        cpu().vmcs().guestOs = &guest;
        cpu().vmcs().guestIf = true;
        cpu().vmentry();
        EXPECT_FALSE(cpu().irqPin(X86Cpu::kPinInject));
        cpu().setInjectVector(0x41);
        EXPECT_TRUE(cpu().irqPin(X86Cpu::kPinInject));
        EXPECT_EQ(guest.taken, 0);
        cpu().compute(1);
        EXPECT_EQ(guest.taken, 0x41);
        EXPECT_EQ(cpu().injectVector(), 0);
        EXPECT_FALSE(cpu().irqPin(X86Cpu::kPinInject));

        cpu().setInjectVector(0x42); // armed, then the guest exits first
        cpu().vmcall(0xDEAD);
        EXPECT_FALSE(cpu().irqPin(X86Cpu::kPinInject));
    });
}

TEST_F(X86Test, RdtscNeverExitsAndHonorsOffset)
{
    run([&] {
        cpu().vmcs().ept = &ept;
        cpu().vmcs().tscOffset = 5000;
        cpu().compute(10000);
        std::uint64_t host_tsc = cpu().rdtsc();
        cpu().vmentry();
        std::uint64_t guest_tsc = cpu().rdtsc();
        EXPECT_TRUE(vmx.exits.empty()); // no trap (paper §2)
        EXPECT_LT(guest_tsc, host_tsc + 1000);
        EXPECT_GE(host_tsc, guest_tsc); // offset subtracted
        cpu().vmcall(0xDEAD);
    });
}

TEST_F(X86Test, PortIoExitsWithFullDecodeInfo)
{
    run([&] {
        cpu().vmcs().ept = &ept;
        cpu().vmentry();
        cpu().portIo(0x3F8, true, 'x');
        ASSERT_EQ(vmx.exits.size(), 1u);
        EXPECT_EQ(vmx.exits[0].reason, ExitReason::IoInstruction);
        EXPECT_EQ(vmx.exits[0].port, 0x3F8);
        EXPECT_EQ(vmx.exits[0].value, 'x');
        cpu().vmcall(0xDEAD);
    });
}

TEST_F(X86Test, ApicIpiDeliversAcrossCpus)
{
    bool handled = false;
    class Os : public X86OsVectors
    {
      public:
        explicit Os(bool &flag) : flag_(flag) {}
        void
        interrupt(X86Cpu &cpu, std::uint8_t vec) override
        {
            if (vec == 0xD0)
                flag_ = true;
            cpu.memWrite(kApicBase + apic::EOI, 0, 4);
        }
        void syscall(X86Cpu &, std::uint32_t) override {}
        const char *name() const override { return "os"; }

      private:
        bool &flag_;
    } os(handled);

    machine->cpu(0).setEntry([&] {
        machine->cpu(0).memWrite(kApicBase + apic::ICR_HI,
                                 std::uint64_t(1) << 56, 4);
        machine->cpu(0).memWrite(kApicBase + apic::ICR_LO, 0xD0, 4);
        while (!handled)
            machine->cpu(0).compute(100);
    });
    machine->cpu(1).setEntry([&] {
        machine->cpu(1).setOsVectors(&os);
        machine->cpu(1).setIf(true);
        while (!handled)
            machine->cpu(1).compute(100);
    });
    machine->run();
    EXPECT_TRUE(handled);
}

TEST_F(X86Test, ApicTimerFiresVector)
{
    int fired = 0;
    class Os : public X86OsVectors
    {
      public:
        explicit Os(int &n) : n_(n) {}
        void
        interrupt(X86Cpu &cpu, std::uint8_t vec) override
        {
            if (vec == 0xEF)
                ++n_;
            cpu.memWrite(kApicBase + apic::EOI, 0, 4);
        }
        void syscall(X86Cpu &, std::uint32_t) override {}
        const char *name() const override { return "os"; }

      private:
        int &n_;
    } os(fired);

    machine->cpu(0).setEntry([&] {
        X86Cpu &c = machine->cpu(0);
        c.setOsVectors(&os);
        c.setIf(true);
        c.memWrite(kApicBase + apic::LVT_TIMER, 0xEF, 4);
        c.memWrite(kApicBase + apic::TIMER_INIT, 5000, 4);
        c.compute(10000);
        EXPECT_EQ(fired, 1);
        // TSC-deadline flavour too.
        c.wrmsrTscDeadline(c.rdtsc() + 4000);
        c.compute(10000);
        EXPECT_EQ(fired, 2);
        // An initial count of 0 stops an armed timer.
        c.memWrite(kApicBase + apic::TIMER_INIT, 5000, 4);
        EXPECT_GT(c.memRead(kApicBase + apic::TIMER_CUR, 4), 0u);
        c.memWrite(kApicBase + apic::TIMER_INIT, 0, 4);
        EXPECT_EQ(c.memRead(kApicBase + apic::TIMER_CUR, 4), 0u);
        c.compute(10000);
        EXPECT_EQ(fired, 2);
    });
    machine->run();
}

TEST_F(X86Test, HltWaitsForInterrupt)
{
    run([&] {
        class Os : public X86OsVectors
        {
          public:
            void
            interrupt(X86Cpu &cpu, std::uint8_t) override
            {
                cpu.memWrite(kApicBase + apic::EOI, 0, 4);
            }
            void syscall(X86Cpu &, std::uint32_t) override {}
            const char *name() const override { return "os"; }
        } os;
        cpu().setOsVectors(&os);
        cpu().setIf(true);
        machine->apic().postVector(0, 0x55, cpu().now() + 20000);
        Cycles t0 = cpu().now();
        cpu().hlt();
        EXPECT_GE(cpu().now() - t0, 19000u);
    });
}

/** The level the CPU once polled on every charge: the highest pending
 *  vector, deliverable only above the innermost in-service one. */
bool
scannedApicLevel(const ApicState &s)
{
    std::uint8_t best = 0;
    int innermost = -1;
    for (unsigned v = 0; v < 256; ++v) {
        if (s.pending(std::uint8_t(v)))
            best = std::uint8_t(v);
        if (s.inService(std::uint8_t(v)))
            innermost = int(v);
    }
    return best != 0 && (innermost < 0 || best > innermost);
}

TEST(X86ApicPin, SeededOpsMatchScan)
{
    // Seeded posts (some still in flight), accepts, EOIs and charges, run
    // from the test thread: with IF clear in root mode nothing is
    // delivered, so only the pin bookkeeping is under test. After every
    // step each CPU's Apic pin equals the scan.
    constexpr int kSteps = 3000;
    constexpr std::array<std::uint8_t, 5> kVectors = {0x30, 0x41, 0x55,
                                                      0xD0, 0xEF};
    X86Machine::Config mc;
    mc.numCpus = 2;
    mc.ramSize = 16 * kMiB;
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        X86Machine machine(mc);
        LocalApic &apic = machine.apic();
        int high = 0;
        for (int i = 0; i < kSteps; ++i) {
            CpuId c = static_cast<CpuId>(rng.range(mc.numCpus));
            X86Cpu &cpu = machine.cpu(c);
            switch (rng.range(5)) {
              case 0:
              case 1:
                apic.postVector(c, kVectors[rng.range(kVectors.size())],
                                cpu.now() + rng.range(300));
                break;
              case 2:
                apic.acceptVector(c);
                break;
              case 3:
                if (apic.state(c).anyInService())
                    apic.eoi(c);
                break;
              default:
                cpu.compute(1 + rng.range(150));
                break;
            }
            for (CpuId k = 0; k < mc.numCpus; ++k) {
                bool pin = machine.cpu(k).irqPin(X86Cpu::kPinApic);
                ASSERT_EQ(pin, scannedApicLevel(apic.state(k)))
                    << "cpu" << k << " at step " << i;
                high += pin;
            }
        }
        EXPECT_GT(high, kSteps / 10);
        EXPECT_LT(high, 2 * kSteps - kSteps / 10);
    }
}

/** The xAPIC as ordered sets: the IRR, and the ISR whose highest member
 *  an EOI clears. */
struct SetApicModel
{
    std::set<unsigned> irr, isr;

    unsigned
    deliverable() const
    {
        if (irr.empty() || *irr.rbegin() == 0)
            return 0;
        if (!isr.empty() && *irr.rbegin() <= *isr.rbegin())
            return 0;
        return *irr.rbegin();
    }

    unsigned
    accept()
    {
        unsigned v = deliverable();
        if (v) {
            irr.erase(v);
            isr.insert(v);
        }
        return v;
    }

    bool
    eoi()
    {
        if (isr.empty())
            return false;
        isr.erase(std::prev(isr.end()));
        return true;
    }

    /** CPUs an ICR_LO write from @p self reaches among @p n CPUs. */
    static std::set<unsigned>
    targets(std::uint64_t icr_lo, std::uint64_t icr_hi, unsigned self,
            unsigned n)
    {
        std::set<unsigned> t;
        unsigned dest = unsigned(icr_hi >> 56);
        for (unsigned c = 0; c < n; ++c) {
            switch ((icr_lo >> 18) & 3) {
              case 0:
                if (c == dest)
                    t.insert(c);
                break;
              case 1:
                if (c == self)
                    t.insert(c);
                break;
              case 2:
                t.insert(c);
                break;
              case 3:
                if (c != self)
                    t.insert(c);
                break;
            }
        }
        return t;
    }
};

TEST(X86ApicState, SeededOpsMatchSetModel)
{
    // Seeded pends (often of a vector already pending), accepts, EOIs
    // (some on an empty ISR), returns of an accepted vector, and ICR
    // writes with every shorthand. After every step the IRR, the ISR and
    // the deliverable vector equal the model's.
    constexpr int kSteps = 4000;
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        ApicState apic;
        SetApicModel model;
        std::array<std::uint8_t, 6> pool{};
        for (std::uint8_t &v : pool)
            v = std::uint8_t(0x10 + rng.range(0xF0));
        std::array<int, 6> seen{};
        for (int i = 0; i < kSteps; ++i) {
            unsigned op = unsigned(rng.range(6));
            ++seen[op];
            switch (op) {
              case 0: {
                auto v = pool[rng.range(pool.size())];
                apic.pend(v);
                model.irr.insert(v);
                break;
              }
              case 1:
                ASSERT_EQ(apic.accept(), model.accept()) << "step " << i;
                break;
              case 2:
                ASSERT_EQ(apic.eoi(), model.eoi()) << "step " << i;
                break;
              case 3: {
                // Return a vector that was accepted but never taken.
                unsigned v = model.accept();
                ASSERT_EQ(apic.accept(), v) << "step " << i;
                if (v) {
                    apic.unaccept(std::uint8_t(v));
                    model.isr.erase(v);
                    model.irr.insert(v);
                }
                break;
              }
              case 4: {
                unsigned n = 1 + unsigned(rng.range(8));
                unsigned self = unsigned(rng.range(n));
                std::uint64_t hi = rng.range(10) << 56;
                std::uint64_t lo = (rng.range(4) << 18) | rng.range(256);
                EXPECT_FALSE(apic.write(apic::ICR_HI, hi));
                EXPECT_EQ(apic.read(apic::ICR_HI, self), hi);
                ApicState::Ipi ipi = apic.decodeIcr(lo, self, n);
                EXPECT_EQ(ipi.vector, lo & 0xFF);
                EXPECT_EQ(ipi.shorthand, (lo >> 18) & 3);
                std::set<unsigned> got;
                for (unsigned c = 0; c < 64; ++c)
                    if (ipi.targets >> c & 1)
                        got.insert(c);
                ASSERT_EQ(got, SetApicModel::targets(lo, hi, self, n))
                    << "step " << i << " icr " << std::hex << lo;
                break;
              }
              default:
                break;
            }
            for (unsigned v = 0; v < 256; ++v) {
                ASSERT_EQ(apic.pending(std::uint8_t(v)), model.irr.count(v))
                    << "vector " << v << " at step " << i;
                ASSERT_EQ(apic.inService(std::uint8_t(v)), model.isr.count(v))
                    << "vector " << v << " at step " << i;
            }
            ASSERT_EQ(apic.deliverable(), model.deliverable());
            ASSERT_EQ(apic.anyPending(), !model.irr.empty());
            ASSERT_EQ(apic.anyInService(), !model.isr.empty());
        }
        for (int n : seen)
            EXPECT_GT(n, kSteps / 10);
    }
}

TEST(X86ApicState, RegisterDecode)
{
    ApicState apic;
    EXPECT_EQ(apic.read(apic::ID, 3), std::uint64_t(3) << 24);
    EXPECT_EQ(apic.timerVector(), kDefaultTimerVector);
    EXPECT_FALSE(apic.write(apic::LVT_TIMER, 0x31));
    EXPECT_EQ(apic.timerVector(), 0x31);
    EXPECT_TRUE(apic.write(apic::LVT_TIMER, (1u << 16) | 0x32));
    EXPECT_EQ(apic.timerVector(), 0x32);
    EXPECT_EQ(apic.read(apic::LVT_TIMER, 0), 0u);
    EXPECT_FALSE(apic.write(apic::TPR, 0x20));
    EXPECT_FALSE(apic.eoi()); // empty ISR
}

TEST(X86Snapshot, TakeSnapshotFailsInsteadOfDroppingCpuAndApicState)
{
    X86Machine machine(X86Machine::Config{.numCpus = 2,
                                          .ramSize = 16 * kMiB,
                                          .platform = X86Platform::Laptop});
    try {
        machine.takeSnapshot();
        FAIL() << "an x86 machine snapshot must be refused";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("X86Cpu"), std::string::npos) << what;
        EXPECT_NE(what.find("LocalApic"), std::string::npos) << what;
    }
    EXPECT_THROW(machine.takeSnapshot(), FatalError);
}

} // namespace
} // namespace kvmarm::x86
