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
           const std::vector<Row> &rows, int precision)
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
}

void
printFigure(const std::string &title, wl::Figure f)
{
    using wl::Figure;
    const wl::FigureResults r = wl::runFigure(f);
    std::vector<Row> rows;
    if (f == Figure::Fig3 || f == Figure::Fig4) {
        const wl::LmFigure &fig =
            f == Figure::Fig3 ? r.lmbenchUp : r.lmbenchSmp;
        for (const auto &[w, v] : fig)
            rows.push_back({wl::lmWorkloadName(w), {v.begin(), v.end()}, {}});
    } else {
        const wl::AppFigure &fig = f == Figure::Fig5 ? r.appsUp : r.appsSmp;
        for (const auto &[app, outcomes] : fig) {
            rows.push_back({wl::appName(app), {}, {}});
            for (const wl::AppOutcome &o : outcomes)
                rows.back().measured.push_back(o.overhead);
        }
    }
    printTable(title, {"ARM", "ARM-noVGIC", "x86-lap", "x86-srv"}, rows, 2);
    printClaims(f, r);
}

void
printClaims(wl::Figure f, const wl::FigureResults &r)
{
    // Claim lines are indented: kvmarm_bench finds the Table 3 rows of the
    // golden by their label at the start of a line.
    const char *header = "Claims (src/workload/claims.cc), verdicts computed "
                         "from the rows above:\n";
    for (const wl::Claim &c : wl::claims()) {
        if (c.figure != f)
            continue;
        std::printf("%s  %s (%s, %s): %s\n    %s\n", header, c.id,
                    c.kind == wl::ClaimKind::Calibration ? "calibration"
                                                         : "prediction",
                    c.section, c.holds(r) ? "holds" : "does not hold",
                    c.statement);
        header = "";
    }
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
