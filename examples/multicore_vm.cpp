/**
 * @file
 * Multicore VM example: two VCPUs pinned to two physical cores exchange
 * virtual IPIs through the emulated distributor and the hardware list
 * registers (paper §3.5): VCPU0's SGIR write traps, the virtual
 * distributor programs VCPU1's list registers, and VCPU1 ACKs/EOIs the
 * virtual IPI through the VGIC without trapping.
 */

#include <cstdio>

#include "core/kvm_stack.hh"

using namespace kvmarm;

namespace {

/** Guest kernel with a GIC driver: ACK, count, EOI. */
class IpiGuest : public arm::OsVectors
{
  public:
    void
    irq(arm::ArmCpu &cpu) override
    {
        std::uint32_t iar = static_cast<std::uint32_t>(cpu.memRead(
            arm::ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        if ((iar & 0x3FF) < arm::kNumSgis)
            ++ipis;
        cpu.memWrite(arm::ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
    }
    void svc(arm::ArmCpu &, std::uint32_t) override {}
    bool pageFault(arm::ArmCpu &, Addr, bool, bool) override
    {
        return false;
    }
    const char *name() const override { return "ipi-guest"; }

    void
    boot(arm::ArmCpu &cpu)
    {
        cpu.memWrite(arm::ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
        cpu.memWrite(arm::ArmMachine::kGicdBase + arm::gicd::ISENABLER,
                     0xFFFF);
        cpu.memWrite(arm::ArmMachine::kGiccBase + arm::gicc::PMR, 0xFF);
        cpu.memWrite(arm::ArmMachine::kGiccBase + arm::gicc::CTLR, 1);
        cpu.setIrqMasked(false);
    }

    std::uint64_t ipis = 0;
};

} // namespace

int
main()
{
    std::printf("=== multicore_vm ===\n");
    constexpr unsigned kIpis = 32;

    core::KvmStack stack({.numCpus = 2, .ramSize = 512 * kMiB, .kvm = {}});

    std::unique_ptr<core::Vm> vm;
    IpiGuest guest0, guest1;
    bool peer_ready = false;
    bool finished = false;
    Cycles round_trip = 0;

    stack.onCpu(0, [&](arm::ArmCpu &cpu) {
        vm = stack.kvm.createVm(64 * kMiB);
        core::VCpu &vcpu0 = vm->addVcpu(0);
        vm->addVcpu(1);
        vcpu0.setGuestOs(&guest0);

        vcpu0.run(cpu, [&](arm::ArmCpu &c) {
            guest0.boot(c);
            while (!peer_ready)
                c.compute(300);

            Cycles t0 = c.now();
            for (unsigned i = 0; i < kIpis; ++i) {
                // SGI 5 to VCPU1 via the (trapped) distributor.
                c.memWrite(arm::ArmMachine::kGicdBase + arm::gicd::SGIR,
                           (1u << 17) | 5);
                while (guest1.ipis < i + 1)
                    c.compute(100);
            }
            round_trip = (c.now() - t0) / kIpis;
            finished = true;
        });
    });

    stack.onCpu(1, [&](arm::ArmCpu &cpu) {
        while (!vm || vm->vcpus().size() < 2)
            cpu.compute(400);
        core::VCpu &vcpu1 = *vm->vcpus()[1];
        vcpu1.setGuestOs(&guest1);
        vcpu1.run(cpu, [&](arm::ArmCpu &c) {
            guest1.boot(c);
            peer_ready = true;
            while (!finished)
                c.compute(150);
        });
    });

    stack.machine.run();

    core::VCpu &vcpu0 = *vm->vcpus()[0];
    core::VCpu &vcpu1 = *vm->vcpus()[1];
    std::printf("sent %u virtual IPIs VCPU0 -> VCPU1\n", kIpis);
    std::printf("received by the guest on VCPU1:  %llu\n",
                (unsigned long long)guest1.ipis);
    std::printf("average round trip:              %llu cycles "
                "(paper Table 3: 14,366)\n",
                (unsigned long long)round_trip);
    std::printf("VCPU0 distributor-trap exits:    %llu\n",
                (unsigned long long)
                    vcpu0.stats.counterValue("mmio.vdist"));
    std::printf("VCPU1 world switches (kicks):    %llu\n",
                (unsigned long long)
                    vcpu1.stats.counterValue("worldswitch.out"));
    std::printf("kick SGIs taken by the host:     %llu\n",
                (unsigned long long)stack.machine.cpu(1)
                    .stats()
                    .counterValue("kvm.kick"));
    return 0;
}
