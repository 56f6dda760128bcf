/**
 * @file
 * Reproduces Table 1, "VM and Host State on a Cortex-A15": the register
 * groups KVM/ARM context switches versus trap-and-emulates, derived
 * directly from the register-file definitions the world switch operates
 * on — so the table cannot drift from the implementation. That a world
 * switch moves this state symmetrically is checked at run time by the
 * ws-pairing invariant rule (src/check/rules.cc).
 */

#include <cstdio>

#include "arm/registers.hh"
#include "arm/vgic.hh"

int
main()
{
    using namespace kvmarm;
    std::printf("\n=== Table 1: VM and Host State on a Cortex-A15 ===\n");
    std::printf("%-18s %6s  %s\n", "Action", "Nr.", "State");
    for (const auto &row : arm::stateInventory()) {
        std::printf("%-18s %6s  %s\n", row.action.c_str(),
                    row.count.c_str(), row.what.c_str());
    }
    std::printf(
        "\nDerived from the implementation: %u GP registers "
        "(arm::GpReg), %u control registers (arm::CtrlReg),\n"
        "%zu VGIC control + %u list registers "
        "(arm::kVgicCtrlSaveList/kNumListRegs), 2 timer registers,\n"
        "%u x 64-bit VFP + %u VFP control registers.\n",
        arm::kNumGpRegs, arm::kNumCtrlRegs, arm::kVgicCtrlSaveList.size(),
        arm::kNumListRegs, arm::kNumVfpDataRegs, arm::kNumVfpCtrlRegs);
    return 0;
}
