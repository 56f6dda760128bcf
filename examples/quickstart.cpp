/**
 * @file
 * Quickstart: the smallest complete KVM/ARM setup.
 *
 * Builds an ARM machine with virtualization extensions, boots the host
 * kernel (in Hyp mode, installing the stub), initializes KVM/ARM, creates
 * a VM with one VCPU and runs a guest that touches memory (Stage-2 demand
 * faults), prints to the QEMU-emulated UART (MMIO exits to user space)
 * and makes a hypercall — then dumps what the hypervisor saw.
 */

#include <cstdio>

#include "core/kvm_stack.hh"
#include "vdev/qemu.hh"

using namespace kvmarm;

namespace {

/** A tiny guest kernel: we only need exception vectors. */
class TinyGuest : public arm::OsVectors
{
  public:
    void irq(arm::ArmCpu &) override {}
    void svc(arm::ArmCpu &, std::uint32_t) override {}
    bool pageFault(arm::ArmCpu &, Addr, bool, bool) override
    {
        return false;
    }
    const char *name() const override { return "tiny-guest"; }
};

} // namespace

int
main()
{
    std::printf("=== quickstart ===\n");

    // 1. The stack, built in the paper's bring-up order: a dual
    //    Cortex-A15-class board with GICv2 virtualization extensions and
    //    generic timers, the host Linux kernel (the bootloader enters it
    //    in Hyp mode) and KVM/ARM, the split-mode hypervisor.
    core::KvmStack stack({.numCpus = 2, .ramSize = 512 * kMiB, .kvm = {}});

    TinyGuest guest_os;

    // 2. On cpu0: the host boots, then KVM's per-CPU init installs the
    //    lowvisor through the Hyp stub.
    stack.onCpu(0, [&](arm::ArmCpu &cpu) {
        // 3. A VM with 64 MiB of RAM, one VCPU, QEMU for devices.
        auto vm = stack.kvm.createVm(64 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(&guest_os);
        vdev::QemuArm qemu(stack.kvm, *vm);

        // 4. KVM_RUN: everything inside the lambda executes in the guest
        //    world, behind Stage-2 translation and the trap configuration.
        vcpu.run(cpu, [&](arm::ArmCpu &c) {
            // Touch guest memory: Stage-2 faults allocate pages on demand
            // through the host's get_user_pages.
            for (Addr off = 0; off < 8 * kPageSize; off += kPageSize)
                c.memWrite(arm::ArmMachine::kRamBase + off, off, 8);

            // Print through the UART: each access is an MMIO exit to the
            // QEMU process.
            for (const char *p = "Hello from the VM!\n"; *p; ++p)
                c.memWrite(arm::ArmMachine::kUartBase + vdev::uart::DR,
                           std::uint64_t(*p), 4);

            // A hypercall: two world switches, no work.
            c.hvc(core::hvc::kTestHypercall);
        });

        std::printf("UART captured: %s", qemu.uart().output().c_str());
        std::printf("\nHypervisor view of the guest's run:\n");
        std::printf("  world switches (in/out):   %llu / %llu\n",
                    (unsigned long long)
                        vcpu.stats.counterValue("worldswitch.in"),
                    (unsigned long long)
                        vcpu.stats.counterValue("worldswitch.out"));
        std::printf("  stage-2 page faults:       %llu\n",
                    (unsigned long long)
                        vcpu.stats.counterValue("fault.stage2"));
        std::printf("  MMIO exits to user space:  %llu\n",
                    (unsigned long long)
                        vcpu.stats.counterValue("mmio.user"));
        std::printf("  hypercalls:                %llu\n",
                    (unsigned long long)
                        vcpu.stats.counterValue("emul.hypercall"));
        std::printf("  guest pages mapped:        %zu\n",
                    vm->stage2().mappedRamPages());
        std::printf("  simulated cycles:          %llu (%.3f ms at "
                    "1.7 GHz)\n",
                    (unsigned long long)cpu.now(),
                    1e3 * stack.machine.seconds(cpu.now()));
    });

    stack.machine.run();
    return 0;
}
