/**
 * @file
 * Ablation: the cost of trapping virtual IPI sends (paper §6, "Completely
 * avoid IPI traps").
 *
 * Measures the VM IPI round trip, then the sender-side share that is pure
 * distributor-trap overhead (SGIR world switch + locked emulation), by
 * timing a trapped SGIR write in isolation. The difference estimates what
 * hardware support for sending virtual IPIs directly — the paper's
 * recommendation — would recover.
 */

#include <cstdio>

#include "arm/machine.hh"
#include "bench_util.hh"
#include "workload/microbench.hh"

namespace {

using namespace kvmarm;

/** Guest vectors that ACK and EOI every interrupt. */
class AckOs : public bench::NullOs
{
  public:
    void
    irq(arm::ArmCpu &cpu) override
    {
        std::uint32_t iar = static_cast<std::uint32_t>(
            cpu.memRead(arm::ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        cpu.memWrite(arm::ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
    }
};

/** Cost of one trapped self-SGIR write (the send-side trap). */
Cycles
sgirTrapCost()
{
    AckOs guest_os;
    Cycles result = 0;
    bench::runSingleVcpu(core::KvmConfig{}, [&](arm::ArmCpu &c) {
        // Enable the distributor so SGIs route (trapped writes).
        c.memWrite(arm::ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
        constexpr unsigned iters = 64;
        Cycles t0 = c.now();
        for (unsigned i = 0; i < iters; ++i) {
            // SGIR write with an empty target list: pure send-side
            // trap + emulation cost, no delivery.
            c.memWrite(arm::ArmMachine::kGicdBase + arm::gicd::SGIR, 0);
        }
        result = (c.now() - t0) / iters;
    }, &guest_os);
    return result;
}

} // namespace

int
main()
{
    wl::MicroResults micro = wl::runArmMicrobench({true, true, 64});
    Cycles send_trap = sgirTrapCost();

    double direct = double(micro.ipi) - double(send_trap);
    using kvmarm::bench::Row;
    std::vector<Row> rows = {
        {"VM IPI round trip (measured)", {double(micro.ipi)}, {}},
        {"send-side SGIR trap share", {double(send_trap)}, {}},
        {"projected with direct-send hw", {direct}, {}},
    };
    kvmarm::bench::printTable(
        "Ablation: virtual IPI send trap (paper 6, cycles)",
        {"cycles"}, rows);
    std::printf(
        "\nThe trapped, lock-synchronized SGIR emulation costs %.0f%% of "
        "the IPI round trip;\nhardware that let VMs send virtual IPIs "
        "directly (paper §6) would remove it entirely.\nReceiving is "
        "already trap-free with the VGIC (EOI+ACK = %llu cycles).\n",
        100.0 * double(send_trap) / double(micro.ipi),
        (unsigned long long)micro.eoiAck);
    return 0;
}
