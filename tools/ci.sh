#!/usr/bin/env bash
# CI entry point: builds and tests the supported configurations (release,
# ASan+UBSan, TSan) and runs the static checks. Usable locally
# (tools/ci.sh) and from the GitHub workflow; each leg can be run alone
# (tools/ci.sh asan).
#
#   release    RelWithDebInfo, -Werror, default checker mode (Off at runtime)
#   asan       AddressSanitizer + UBSan, whole test suite
#   tsan       ThreadSanitizer, fleet/ring/fiber/engine-registry tests + the
#              fleet_tput smoke
#   enforce    release binaries, whole suite under KVMARM_CHECK=enforce
#   domlint    full-tree domlint + the fixture corpus (must-fire/must-pass)
#   bench      kvmarm_bench --smoke: every workload's digests and metrics
#   lint       domlint + clang-tidy (or strict-GCC fallback) on changed files
#   threadsafety  clang -Wthread-safety on the annotated locking TUs
#   format     tools/format.sh --check
set -eu

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

run_suite() { # <build-dir> [env...]
    local dir=$1
    shift
    env "$@" ctest --test-dir "$dir" --output-on-failure
}

configure_release() {
    # Fortified libc on every host, not only where the compiler enables it
    # by default (Ubuntu does, Debian does not): the fiber switch's
    # _longjmp must never be routed to glibc's __longjmp_chk. -Werror keeps
    # the release and enforce legs warning-free.
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-U_FORTIFY_SOURCE -D_FORTIFY_SOURCE=2 -Werror"
    cmake --build build-ci-release -j"$JOBS"
}

leg_release() {
    configure_release
    run_suite build-ci-release
    # Fleet determinism and clone bit-identity must also hold with every
    # machine's invariant engine live: per-VM sim cycles are compared
    # across thread counts (and against snapshot clones) while each engine
    # checks its own machine.
    env KVMARM_CHECK=enforce ctest --test-dir build-ci-release \
        --output-on-failure -R 'FleetDeterminism|FleetClone|FleetStress'
}

leg_asan() {
    cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKVMARM_SANITIZE=address,undefined
    cmake --build build-ci-asan -j"$JOBS"
    # ASan and the invariant checker compose: enforce while sanitized.
    run_suite build-ci-asan KVMARM_CHECK=enforce \
        ASAN_OPTIONS=detect_stack_use_after_return=0
    # ASan prints this (and stops unpoisoning stacks) when a jump leaves
    # a stack it was not told about: every fiber switch must carry the
    # __sanitizer_*_switch_fiber annotations. ctest keeps the output of
    # passing tests only in its log.
    if grep -q 'False positive error reports may follow' \
        build-ci-asan/Testing/Temporary/LastTest.log; then
        echo "asan: unannotated stack switch (see LastTest.log)" >&2
        return 1
    fi
}

leg_tsan() {
    # The fleet executor is the one place host threads run concurrently;
    # TSan must see zero races across the worker pool, the mutexed logging
    # writer, the invariant-engine registry, and the annotated fiber
    # switches (the Fiber and MachineSched tests drive those switches
    # directly).
    # ctest selects by the sanitize-thread label tests/ and bench/
    # CMakeLists derive from KVMARM_SANITIZE. The Fleet tests submit
    # from inside running jobs while other workers steal, FleetClone
    # COW-faults one shared snapshot image from 8 threads, the RingPacer
    # tests park and notify through the ring-channel mutex at up to 8
    # workers, fleet_tput_smoke sweeps 1/2/4/8 workers in both check
    # modes, EngineSharding races engine construction against process
    # mode changes, EpochProtocol samples a fleet worker's engine, and
    # GuestRamFleet has clones on 4 workers read one snapshot image
    # through their TLBs' host page pointers while they COW-fault it.
    cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKVMARM_SANITIZE=thread
    cmake --build build-ci-tsan -j"$JOBS" --target fleet_tput fleet_test \
        fleet_stress_test sim_test check_invariant_test arm_test
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-ci-tsan --output-on-failure -L sanitize-thread \
        -R '^(Fleet|fleet_|Ring|Fiber|MachineSched|EngineSharding|EpochProtocol|GuestRamFleet)'
    # The seeded stress schedule under TSan: live submissions, mid-run
    # spawns, ring rendezvous and park/notify all race-checked at up to
    # 8 workers (the suite sweeps 1/2/4/8 internally).
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-ci-tsan --output-on-failure -L stress
    # Three more fixed schedules, so the fleet's lock-free job-state
    # transitions (park, wake, latched re-queue, steal) are race-checked
    # on more interleavings than the tier-1 seed set gives.
    for seed in 0x51ee9 0xc0ffee 0xfeed5eed; do
        TSAN_OPTIONS=halt_on_error=1 KVMARM_STRESS_SEED=$seed \
            ctest --test-dir build-ci-tsan --output-on-failure -L stress \
            -R FleetStress
    done
    # Enforce-mode fleet under TSan: the per-machine engines' checked hot
    # path takes no locks, so this is the proof it is race-free.
    TSAN_OPTIONS=halt_on_error=1 \
        env KVMARM_CHECK=enforce ctest --test-dir build-ci-tsan \
        --output-on-failure -L sanitize-thread \
        -R 'FleetDeterminism|FleetClone'
}

leg_enforce() {
    configure_release
    run_suite build-ci-release KVMARM_CHECK=enforce
}

leg_domlint() {
    # The domain-aware pass must be clean over the whole tree (every
    # finding fixed or carrying a justified suppression), and the fixture
    # corpus proves each rule family still fires and each suppression
    # form still parses.
    tools/domlint
    tests/domlint/run_fixtures.sh
}

leg_bench() {
    # The repository benchmark at CI sizes (bench/suite/README.md): builds
    # kvmarm_bench from this checkout into .bench_build/, runs every
    # workload, and fails if a unit's correctness digest drifts or a
    # metric BENCHMARK.json lists is missing or in the wrong unit.
    python3 bench/suite/run.py --smoke
}

leg_lint() {
    tools/lint.sh --changed
}

leg_threadsafety() {
    # Clang thread-safety analysis over the annotated locking surfaces.
    # sim/thread_annotations.hh expands to no-ops under GCC, so this leg
    # is the one that actually checks the GUARDED_BY/ACQUIRE/RELEASE
    # contracts on the invariant-engine registry, the logging writer, and
    # the fleet deques. Skips (successfully) when clang is not installed
    # locally; the GitHub workflow installs clang so CI always runs it.
    local cxx=""
    for c in clang++ clang++-19 clang++-18 clang++-17 clang++-16 \
             clang++-15 clang++-14; do
        if command -v "$c" >/dev/null 2>&1; then
            cxx=$c
            break
        fi
    done
    if [ -z "$cxx" ]; then
        echo "threadsafety: clang++ not found; skipping (CI installs it)"
        return 0
    fi
    local rc=0
    for f in src/check/invariants.cc src/sim/logging.cc src/sim/fleet.cc \
             src/sim/ring_channel.cc; do
        echo "$cxx -Wthread-safety $f"
        "$cxx" -std=c++20 -fsyntax-only -Isrc \
            -Wthread-safety -Werror=thread-safety-analysis "$f" || rc=1
    done
    if [ "$rc" -ne 0 ]; then
        echo "threadsafety: analysis findings above" >&2
        return 1
    fi
    echo "threadsafety: clean"
}

leg_format() {
    tools/format.sh --check
}

legs=${*:-release asan tsan enforce domlint bench lint threadsafety format}
for leg in $legs; do
    echo "==== ci leg: $leg ===="
    "leg_$leg"
done
echo "==== ci: all legs passed ===="
