#!/usr/bin/env bash
# CI driver: builds and tests the three supported configurations and runs
# the static checks. Usable locally (tools/ci.sh) and from the GitHub
# workflow; each leg can be run alone (tools/ci.sh asan).
#
#   release    RelWithDebInfo, default checker mode (Off at runtime)
#   asan       AddressSanitizer + UBSan, whole test suite
#   tsan       ThreadSanitizer, fleet executor tests + fleet smoke benches
#   enforce    release binaries, whole suite under KVMARM_CHECK=enforce
#   nochecks   KVMARM_INVARIANTS=OFF compile check (hooks compile away), -Werror
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
    # _longjmp must never be routed to glibc's __longjmp_chk.
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-U_FORTIFY_SOURCE -D_FORTIFY_SOURCE=2"
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
    # writer, the invariant engine, and the annotated fiber switches (the
    # Fiber and MachineSched tests drive those switches directly).
    # ctest selects by the sanitize-thread label tests/ and bench/
    # CMakeLists derive from KVMARM_SANITIZE. The fleet_*_smoke benches
    # sweep 1/2/4/8 workers and both check modes themselves: fleet_clone
    # COW-faults one shared snapshot image from 8 threads, fleet_ring
    # parks/notifies through the ring-channel mutex, and fleet_pool
    # submits clone jobs from inside running jobs while others steal them.
    cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKVMARM_SANITIZE=thread
    cmake --build build-ci-tsan -j"$JOBS" \
        --target fleet_tput fleet_clone fleet_ring fleet_pool \
        fleet_test fleet_stress_test sim_test
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-ci-tsan --output-on-failure \
        -L sanitize-thread -R '^(Fleet|fleet_|Fiber|MachineSched)'
    # The seeded stress schedule under TSan: live submissions, mid-run
    # spawns, ring rendezvous and park/notify all race-checked at up to
    # 8 workers (the suite sweeps 1/2/4/8 internally).
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-ci-tsan --output-on-failure -L stress
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

leg_nochecks() {
    # -Werror: with the hooks compiled away, a variable or parameter that
    # only a hook used must still not warn.
    cmake -B build-ci-nochecks -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKVMARM_INVARIANTS=OFF -DCMAKE_CXX_FLAGS=-Werror
    cmake --build build-ci-nochecks -j"$JOBS"
    run_suite build-ci-nochecks
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
    # contracts on the invariant-engine facade, the logging writer, and
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

legs=${*:-release asan tsan enforce nochecks domlint bench lint threadsafety format}
for leg in $legs; do
    echo "==== ci leg: $leg ===="
    "leg_$leg"
done
echo "==== ci: all legs passed ===="
