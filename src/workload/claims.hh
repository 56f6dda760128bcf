/**
 * @file
 * The paper's evaluation (§5): Table 3 and Figures 3-7 run on the four
 * platform columns, and each claim the paper makes about them, declared
 * once with a predicate that computes its verdict (DESIGN.md §4.4).
 */

#ifndef KVMARM_WORKLOAD_CLAIMS_HH
#define KVMARM_WORKLOAD_CLAIMS_HH

#include <array>
#include <map>
#include <span>

#include "workload/apps.hh"
#include "workload/linux_model.hh"
#include "workload/microbench.hh"

namespace kvmarm::wl {

/** The platforms of every table and figure, in column order. */
inline constexpr std::array<Platform, 4> kPlatforms = {
    Platform::ArmVgic, Platform::ArmNoVgic, Platform::X86Laptop,
    Platform::X86Server};

constexpr std::size_t
column(Platform p)
{
    return static_cast<std::size_t>(p);
}
static_assert(column(kPlatforms[0]) == 0 && column(kPlatforms[1]) == 1 &&
              column(kPlatforms[2]) == 2 && column(kPlatforms[3]) == 3);

/** Table 3 as the paper reports it (cycles), one column per platform. */
inline constexpr std::array<MicroResults, 4> kPaperTable3 = {{
    {5326, 27, 5990, 10119, 14366, 427},
    {2270, 27, 2850, 6704, 32951, 13726},
    {1336, 632, 3190, 10985, 17138, 2043},
    {1638, 821, 3291, 12218, 21177, 2305},
}};

/** A Table 3 row: its label and the MicroResults field it shows. */
struct Table3Row
{
    const char *name;
    Cycles MicroResults::*cell;
};

inline constexpr Table3Row kTable3Rows[] = {
    {"Hypercall", &MicroResults::hypercall},
    {"Trap", &MicroResults::trap},
    {"I/O Kernel", &MicroResults::ioKernel},
    {"I/O User", &MicroResults::ioUser},
    {"IPI", &MicroResults::ipi},
    {"EOI+ACK", &MicroResults::eoiAck},
};

/** Virtualized/native overhead of each lmbench workload per platform. */
using LmFigure = std::map<LmWorkload, std::array<double, kPlatforms.size()>>;
/** Outcome of each application per platform. */
using AppFigure = std::map<App, std::array<AppOutcome, kPlatforms.size()>>;

enum class Figure { Table3, Fig3, Fig4, Fig5, Fig6, Fig7 };

/** Results of the evaluation; runFigure() fills what one figure reads. */
struct FigureResults
{
    std::array<MicroResults, 4> table3{}; //!< Table 3
    LmFigure lmbenchUp;  //!< Figure 3
    LmFigure lmbenchSmp; //!< Figure 4
    AppFigure appsUp;    //!< Figure 5
    AppFigure appsSmp;   //!< Figures 6 and 7
};

FigureResults runFigure(Figure f);

/** The experiment behind one lmbench cell of Figure 3 (UP) or 4 (SMP). */
Experiment lmbenchExperiment(Platform platform, LmWorkload w, bool smp);

enum class ClaimKind { Calibration, Prediction };
enum class Verdict { Holds, DoesNotHold };

struct Claim
{
    const char *id;        //!< unique; also its test's name
    Figure figure;         //!< the results the predicate reads
    const char *section;   //!< where the paper makes the claim
    ClaimKind kind;
    Verdict recorded;      //!< what this reproduction achieves
    const char *statement; //!< the paper's words
    bool (*holds)(const FigureResults &); //!< computes the verdict
};

/** Every claim, by figure in paper order. */
std::span<const Claim> claims();

} // namespace kvmarm::wl

#endif // KVMARM_WORKLOAD_CLAIMS_HH
