/**
 * @file
 * Reproduces Table 4, "Code Complexity in Lines of Code": counts this
 * repository's KVM/ARM implementation by the paper's component breakdown
 * (Core CPU, Page Fault Handling, Interrupts, Timers, Other) plus the
 * lowvisor subset, side by side with the paper's counts for mainline
 * KVM/ARM and KVM x86.
 *
 * Every listed file must exist: a missing one (a file renamed or moved
 * without updating the list here) is an error, not a silently smaller row.
 * The Interrupts row counts the shared GICv2 distributor model
 * (arm/gic_dist) too, because the virtual distributor is built on it.
 *
 * Note: our src/kvmx86 is a *behavioral model* of KVM x86 built for the
 * performance comparison, not a reimplementation of it; the x86 column
 * therefore reports the paper's numbers (23,426 lines over the five
 * rows), and the bench prints our model's size for transparency. The
 * paper's five reasons for x86's extra complexity (shadow paging, feature
 * evolution, instruction decoding, paging modes, interrupts/timers) are
 * design history a clean reimplementation cannot reproduce.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

namespace fs = std::filesystem;

/** Count non-blank, non-comment lines of one file; exits with an error if
 *  it cannot be read. */
unsigned
countLoc(const fs::path &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "table4_loc: cannot read %s\n", path.c_str());
        std::exit(1);
    }
    unsigned loc = 0;
    std::string line;
    bool in_block_comment = false;
    while (std::getline(in, line)) {
        std::size_t b = line.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        std::string t = line.substr(b);
        if (in_block_comment) {
            if (t.find("*/") != std::string::npos)
                in_block_comment = false;
            continue;
        }
        if (t.rfind("//", 0) == 0)
            continue;
        if (t.rfind("/*", 0) == 0 || t.rfind("/**", 0) == 0) {
            if (t.find("*/") == std::string::npos)
                in_block_comment = true;
            continue;
        }
        if (t.rfind("*", 0) == 0)
            continue; // doxygen block continuation
        ++loc;
    }
    return loc;
}

struct Component
{
    const char *name;
    std::vector<const char *> files;
    unsigned paperArm;
    unsigned paperX86;
};

std::vector<Component>
components()
{
    return {
        {"Core CPU",
         {"core/lowvisor.cc", "core/lowvisor.hh", "core/world_switch.cc",
          "core/world_switch.hh", "core/vcpu.cc", "core/vcpu.hh"},
         2493, 16177},
        {"Page Fault Handling",
         {"core/stage2_mmu.cc", "core/stage2_mmu.hh", "core/hyp_mem.cc",
          "core/hyp_mem.hh"},
         738, 3410},
        {"Interrupts",
         {"core/vgic_emul.cc", "core/vgic_emul.hh", "arm/gic_dist.cc",
          "arm/gic_dist.hh"},
         1057, 1978},
        {"Timers",
         {"core/vtimer.cc", "core/vtimer.hh"},
         180, 573},
        {"Other",
         {"core/kvm.cc", "core/kvm.hh", "core/vm.cc", "core/vm.hh",
          "core/highvisor.cc", "core/highvisor.hh", "core/types.hh"},
         1344, 1288},
    };
}

unsigned
treeLoc(const fs::path &dir)
{
    unsigned total = 0;
    if (!fs::exists(dir))
        return 0;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        auto ext = e.path().extension();
        if (ext == ".cc" || ext == ".hh")
            total += countLoc(e.path());
    }
    return total;
}

} // namespace

int
main()
{
    fs::path src = fs::path(KVMARM_SOURCE_ROOT) / "src";

    using kvmarm::bench::Row;
    std::vector<Row> rows;
    unsigned our_total = 0;
    unsigned paper_arm_total = 0;
    unsigned paper_x86_total = 0;
    for (const Component &c : components()) {
        unsigned loc = 0;
        for (const char *f : c.files)
            loc += countLoc(src / f);
        our_total += loc;
        paper_arm_total += c.paperArm;
        paper_x86_total += c.paperX86;
        rows.push_back({c.name,
                        {double(loc), double(c.paperArm),
                         double(c.paperX86)},
                        {}});
    }
    rows.push_back({"Architecture-specific",
                    {double(our_total), double(paper_arm_total),
                     double(paper_x86_total)},
                    {}});

    kvmarm::bench::printTable(
        "Table 4: Code Complexity in Lines of Code (LOC)",
        {"this repo", "paper ARM", "paper x86"}, rows);

    unsigned lowvisor = countLoc(src / "core/lowvisor.cc") +
                        countLoc(src / "core/lowvisor.hh") +
                        countLoc(src / "core/world_switch.cc") +
                        countLoc(src / "core/world_switch.hh");
    std::printf(
        "\nLowvisor (Hyp-mode code): %u LOC here vs 718 in the paper — in "
        "both cases a small\nfraction of the hypervisor, the central "
        "split-mode claim.\n",
        lowvisor);
    std::printf("Behavioral KVM x86 model in this repo (src/kvmx86): %u "
                "LOC (see file header note).\n",
                treeLoc(src / "kvmx86"));
    return 0;
}
