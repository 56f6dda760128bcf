/**
 * @file
 * Isolation property tests (paper §3.3: "a VM cannot access memory
 * belonging to the hypervisor or other VMs, including any sensitive
 * data"): random guest accesses only ever reach pages the Stage-2 tables
 * granted to that VM; two VMs never share a backing frame; the VM's view
 * of the GIC never exposes the hypervisor control interface.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/kvm_stack.hh"
#include "sim/random.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

class NullGuestOs : public arm::OsVectors
{
  public:
    void irq(ArmCpu &) override {}
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "null-guest"; }
};

class IsolationTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    core::KvmStack stack{{.numCpus = 1, .ramSize = 256 * kMiB, .kvm = {}}};
    NullGuestOs guestOs;
};

/** Property: every Stage-2 translation a VM can obtain resolves to a
 *  frame the host allocator handed to THAT VM. */
TEST_P(IsolationTest, RandomAccessesStayInOwnFrames)
{
    Rng rng(GetParam() * 104729 + 7);
    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm_a = stack.kvm.createVm(16 * kMiB);
        auto vm_b = stack.kvm.createVm(16 * kMiB);
        core::VCpu &vcpu_a = vm_a->addVcpu(0);
        core::VCpu &vcpu_b = vm_b->addVcpu(0);
        vcpu_a.setGuestOs(&guestOs);
        vcpu_b.setGuestOs(&guestOs);

        // Plant a secret in a host-owned page.
        Addr secret_page = stack.host.mm().allocPage();
        stack.machine.ram().write(secret_page, 0x5EC12E7, 8);

        // VM A writes a tag to many random pages of its RAM.
        vcpu_a.run(cpu, [&](ArmCpu &c) {
            for (int i = 0; i < 48; ++i) {
                Addr ipa = ArmMachine::kRamBase +
                           pageAlignDown(rng.range(16 * kMiB));
                c.memWrite(ipa, 0xAAAA0000 + i, 8);
            }
        });

        // Every frame VM A obtained is exclusive: refcounted to VM A and
        // distinct from the secret page.
        std::set<Addr> a_frames;
        for (Addr off = 0; off < 16 * kMiB; off += kPageSize) {
            if (auto pa = vm_a->stage2().ipaToPa(ArmMachine::kRamBase + off))
                a_frames.insert(pageAlignDown(*pa));
        }
        EXPECT_FALSE(a_frames.count(secret_page));

        // VM B reads the same random IPAs: it must see zeroed pages (its
        // own fresh frames), never VM A's tags or the secret.
        vcpu_b.run(cpu, [&](ArmCpu &c) {
            Rng rng2(GetParam() * 104729 + 7);
            for (int i = 0; i < 48; ++i) {
                Addr ipa = ArmMachine::kRamBase +
                           pageAlignDown(rng2.range(16 * kMiB));
                std::uint64_t v = c.memRead(ipa, 8);
                EXPECT_EQ(v, 0u) << "VM B observed foreign data";
            }
        });

        for (Addr off = 0; off < 16 * kMiB; off += kPageSize) {
            if (auto pa =
                    vm_b->stage2().ipaToPa(ArmMachine::kRamBase + off)) {
                EXPECT_FALSE(a_frames.count(pageAlignDown(*pa)))
                    << "VMs share a backing frame";
            }
        }
    });
    stack.machine.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsolationTest, ::testing::Range(0u, 6u));

TEST_F(IsolationTest, GichIsInvisibleToTheVm)
{
    stack.onCpu(0, [&](ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(16 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guestOs);

        vcpu.run(cpu, [&](ArmCpu &c) {
            // Writing the hyp control interface from the VM must NOT
            // reach the hardware: the access faults and goes to user
            // space, which doesn't model that region.
            c.memWrite(ArmMachine::kGichBase + arm::gich::HCR, 0, 4);
            EXPECT_TRUE(stack.machine.gich().bank(0).en)
                << "VM disabled the hypervisor's GICH!";
            // The GICC address, in contrast, reaches GICV transparently.
            c.memWrite(ArmMachine::kGiccBase + arm::gicc::CTLR, 1, 4);
            EXPECT_TRUE(stack.machine.gich().bank(0).vmEnabled);
        });
        EXPECT_GE(vcpu.stats.counterValue("mmio.user"), 1u);
    });
    stack.machine.run();
}

TEST_F(IsolationTest, TeardownReturnsEveryFrame)
{
    stack.onCpu(0, [&](ArmCpu &cpu) {
        std::size_t free_before = stack.host.mm().freePages();
        {
            auto vm = stack.kvm.createVm(16 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&guestOs);
            vcpu.run(cpu, [&](ArmCpu &c) {
                for (Addr off = 0; off < 32 * kPageSize; off += kPageSize)
                    c.memWrite(ArmMachine::kRamBase + off, 1, 8);
            });
            EXPECT_LT(stack.host.mm().freePages(), free_before);
        }
        EXPECT_EQ(stack.host.mm().freePages(), free_before);
    });
    stack.machine.run();
}

} // namespace
} // namespace kvmarm
