/**
 * @file
 * VM migration example: exercises the user-space register save/restore
 * interface the paper highlights (§4: "user space save and restore of
 * registers, a feature useful for both debugging and VM migration").
 *
 * A VM runs on machine A, sets distinctive register/memory state, and is
 * stopped; its VCPU state is saved through the GET_ONE_REG-shaped API and
 * its memory copied out; both are restored into a fresh VM on machine B,
 * which resumes exactly where the guest left off — including its virtual
 * counter, carried across via CNTVOFF.
 */

#include <cstdio>
#include <vector>

#include "core/kvm_stack.hh"

using namespace kvmarm;

namespace {

class TinyGuest : public arm::OsVectors
{
  public:
    void irq(arm::ArmCpu &) override {}
    void svc(arm::ArmCpu &, std::uint32_t) override {}
    bool pageFault(arm::ArmCpu &, Addr, bool, bool) override
    {
        return false;
    }
    const char *name() const override { return "migratable-guest"; }
};

constexpr Addr kCounterAddr = arm::ArmMachine::kRamBase + 0x1000;
constexpr unsigned kPhase1 = 5;
constexpr unsigned kPhase2 = 7;

} // namespace

int
main()
{
    std::printf("=== vm_migrate ===\n");
    TinyGuest guest_os;
    core::VcpuState saved_state;
    std::vector<std::pair<Addr, std::uint64_t>> saved_memory;
    std::uint64_t vtime_at_save = 0;

    // ---- Machine A: run the first phase, then save. ----
    {
        core::KvmStack stack({.numCpus = 2, .ramSize = 512 * kMiB, .kvm = {}});
        stack.onCpu(0, [&](arm::ArmCpu &cpu) {
            auto vm = stack.kvm.createVm(64 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&guest_os);

            vcpu.run(cpu, [&](arm::ArmCpu &c) {
                for (unsigned i = 1; i <= kPhase1; ++i)
                    c.memWrite(kCounterAddr, i, 8);
                c.regs()[arm::GpReg::R5] = 0xCAFE0005;
                c.writeCp15(arm::CtrlReg::TPIDRURW, 0x12345678);
                vtime_at_save = c.readCntvct();
            });

            // User space (the migration tool) saves the VCPU through the
            // ONE_REG-style API and copies the dirty guest memory.
            saved_state = vcpu.saveState(cpu);
            for (Addr off = 0; off < 16 * kPageSize; off += 8) {
                Addr ipa = arm::ArmMachine::kRamBase + off;
                if (auto pa = vm->stage2().ipaToPa(ipa)) {
                    std::uint64_t v = stack.machine.ram().read(*pa, 8);
                    if (v)
                        saved_memory.emplace_back(ipa, v);
                }
            }
            std::printf("machine A: guest counter=%u r5=%#x, state "
                        "saved (%zu dirty words, CNTVCT=%llu)\n",
                        kPhase1,
                        vcpu.getOneReg(arm::GpReg::R5),
                        saved_memory.size(),
                        (unsigned long long)saved_state.vtimerOffsetTicks);
        });
        stack.machine.run();
    }

    // ---- Machine B: restore and continue. ----
    {
        core::KvmStack stack({.numCpus = 2, .ramSize = 512 * kMiB, .kvm = {}});
        bool ok = true;
        stack.onCpu(0, [&](arm::ArmCpu &cpu) {
            // Let machine B's clock drift ahead, as a real target would.
            cpu.compute(123456);

            auto vm = stack.kvm.createVm(64 * kMiB);
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&guest_os);
            vcpu.restoreState(cpu, saved_state);
            for (auto &[ipa, value] : saved_memory) {
                vm->stage2().handleRamFault(ipa);
                if (auto pa = vm->stage2().ipaToPa(ipa))
                    stack.machine.ram().write(*pa, value, 8);
            }

            vcpu.run(cpu, [&](arm::ArmCpu &c) {
                // The guest resumes with its registers and memory intact.
                ok &= c.regs()[arm::GpReg::R5] == 0xCAFE0005;
                ok &= c.readCp15(arm::CtrlReg::TPIDRURW) == 0x12345678;
                std::uint64_t counter = c.memRead(kCounterAddr, 8);
                ok &= counter == kPhase1;
                // Virtual time continues from where it was saved, not
                // from machine B's boot (CNTVOFF).
                std::uint64_t vtime = c.readCntvct();
                ok &= vtime >= vtime_at_save &&
                      vtime < vtime_at_save + 100000;
                for (unsigned i = 1; i <= kPhase2; ++i)
                    c.memWrite(kCounterAddr, counter + i, 8);
            });

            std::printf("machine B: resumed, counter advanced to %u, "
                        "state intact: %s\n",
                        kPhase1 + kPhase2, ok ? "yes" : "NO");
        });
        stack.machine.run();
        std::printf("migration %s\n", ok ? "succeeded" : "FAILED");
        return ok ? 0 : 1;
    }
}
