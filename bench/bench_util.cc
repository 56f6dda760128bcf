#include "bench_util.hh"

#include <cstdio>

#include "core/kvm_stack.hh"

namespace kvmarm::bench {

namespace {

void
printHeader(const std::string &title, const std::vector<std::string> &cols,
            bool with_paper)
{
    std::printf("\n=== %s ===\n%-22s", title.c_str(), "");
    for (const std::string &c : cols)
        std::printf(" %10s", c.c_str());
    if (with_paper) {
        std::printf("   |");
        for (const std::string &c : cols)
            std::printf(" %10s", (c + "*").c_str());
    }
    std::printf("\n");
}

} // namespace

void
printTable(const std::string &title, const std::vector<std::string> &columns,
           const std::vector<Row> &rows, const std::string &footer,
           int precision)
{
    bool with_paper = false;
    for (const Row &r : rows)
        for (double p : r.paper)
            with_paper |= p != 0;

    printHeader(title, columns, with_paper);
    for (const Row &r : rows) {
        std::printf("%-22s", r.name.c_str());
        for (double v : r.measured)
            std::printf(" %10.*f", precision, v);
        if (with_paper) {
            std::printf("   |");
            for (std::size_t i = 0; i < columns.size(); ++i) {
                double p = i < r.paper.size() ? r.paper[i] : 0;
                if (p != 0)
                    std::printf(" %10.*f", precision, p);
                else
                    std::printf(" %10s", "-");
            }
        }
        std::printf("\n");
    }
    if (with_paper)
        std::printf("(* = value reported in the paper)\n");
    if (!footer.empty())
        std::printf("%s\n", footer.c_str());
}

void
printFigure(const std::string &title, const std::vector<std::string> &series,
            const std::vector<Row> &rows, const std::string &footer)
{
    printTable(title, series, rows, footer, 2);
}

void
runSingleVcpu(const core::KvmConfig &config,
              const std::function<void(arm::ArmCpu &)> &guest,
              arm::OsVectors *os)
{
    core::KvmStack stack({.numCpus = 1, .ramSize = 256 * kMiB, .kvm = config});
    NullOs null_os;

    stack.onCpu(0, [&](arm::ArmCpu &cpu) {
        auto vm = stack.kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vcpu.setGuestOs(os ? os : &null_os);
        vcpu.run(cpu, guest);
    });
    stack.machine.run();
}

} // namespace kvmarm::bench
