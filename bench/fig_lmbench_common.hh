/**
 * @file
 * The lmbench cell builder, under the name kvmarm_bench (bench/suite)
 * calls it by.
 */

#ifndef KVMARM_BENCH_FIG_LMBENCH_COMMON_HH
#define KVMARM_BENCH_FIG_LMBENCH_COMMON_HH

#include "bench_util.hh"

namespace kvmarm::benchfig {
using wl::lmbenchExperiment;
} // namespace kvmarm::benchfig

#endif // KVMARM_BENCH_FIG_LMBENCH_COMMON_HH
