/**
 * @file
 * Reproduces Table 3, "Micro-Architectural Cycle Counts": Hypercall, Trap,
 * I/O Kernel, I/O User, IPI and EOI+ACK on four configurations — ARM with
 * and without VGIC/vtimers, and KVM x86 on the laptop and server models.
 */

#include "bench_util.hh"

int
main()
{
    using namespace kvmarm;
    const wl::FigureResults r = wl::runFigure(wl::Figure::Table3);
    std::vector<bench::Row> rows;
    for (const wl::Table3Row &row : wl::kTable3Rows) {
        rows.push_back({row.name, {}, {}});
        for (std::size_t c = 0; c < wl::kPlatforms.size(); ++c) {
            rows.back().measured.push_back(double(r.table3[c].*row.cell));
            rows.back().paper.push_back(double(wl::kPaperTable3[c].*row.cell));
        }
    }
    bench::printTable("Table 3: Micro-Architectural Cycle Counts",
                      {"ARM", "ARM-noVGIC", "x86-laptop", "x86-server"},
                      rows);
    bench::printClaims(wl::Figure::Table3, r);
    return 0;
}
