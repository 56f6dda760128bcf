#!/usr/bin/env bash
# Regenerate the BENCH_*.json trajectory at the repo root.
#
#   tools/bench.sh              build + run every bench
#   tools/bench.sh host_tput    run one bench by name
#
# Every BENCH_*.json written here is validated before the script succeeds:
# it must parse as JSON and carry the sections its schema promises
# (schema_version + a non-empty "current" for the native benches, a
# non-empty "benchmarks" array for google-benchmark output). A malformed
# file fails the whole run instead of being committed silently.
set -eu

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
BUILD=${BUILD:-build}

# The native benches write their own JSON (preserving the recorded
# pre-optimization baseline section; pass --rebaseline through REBASE=1),
# as <bench>:<output file>. The google-benchmark benches emit theirs via
# --benchmark_out into BENCH_<bench>.json.
NATIVE="host_tput:BENCH_host_tput.json fleet_tput:BENCH_fleet.json
    fleet_clone:BENCH_fleet_clone.json fleet_ring:BENCH_fleet_ring.json
    fleet_pool:BENCH_fleet_pool.json"
GBENCH="table1_state table3_micro table4_loc fig3_lmbench_up fig4_lmbench_smp
    fig5_apps_up fig6_apps_smp fig7_energy ablation_split_mode ablation_vgic
    ablation_ipi ablation_lazy_fpu"
native_names=""
for nb in $NATIVE; do
    native_names="$native_names ${nb%%:*}"
done

validate_json() { # <file>
    python3 - "$1" $native_names <<'EOF_PY'
import json
import sys

path, native = sys.argv[1], sys.argv[2:]
try:
    with open(path) as f:
        doc = json.load(f)
except Exception as e:
    sys.exit(f"bench.sh: {path}: missing or not parseable JSON: {e}")
if not isinstance(doc, dict):
    sys.exit(f"bench.sh: {path}: top level is not an object")
if "schema_version" in doc:
    if not doc.get("current"):
        sys.exit(f"bench.sh: {path}: missing or empty 'current' section")
    if doc.get("bench") in native:
        # The native benches must record which KVMARM_CHECK modes the run
        # covered ("off,enforce", or "disabled" under the
        # -DKVMARM_INVARIANTS=OFF kill switch).
        mode = doc.get("kvmarm_check")
        if mode not in ("off,enforce", "disabled"):
            sys.exit(
                f"bench.sh: {path}: missing or invalid 'kvmarm_check' "
                f"field (got {mode!r})")
elif "benchmarks" in doc:
    if not doc["benchmarks"]:
        sys.exit(f"bench.sh: {path}: empty 'benchmarks' array")
else:
    sys.exit(
        f"bench.sh: {path}: neither 'schema_version' (native schema) "
        "nor 'benchmarks' (google-benchmark schema) present")
EOF_PY
}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
# shellcheck disable=SC2086 # the lists are whitespace-separated names
cmake --build "$BUILD" -j"$JOBS" --target $native_names $GBENCH >/dev/null

selected=${*:-all}

wanted() { # <name>
    [ "$selected" = all ] || [[ " $selected " == *" $1 "* ]]
}

for nb in $NATIVE; do
    name=${nb%%:*}
    out=${nb#*:}
    wanted "$name" || continue
    echo "==== bench: $name ===="
    "$BUILD/bench/$name" ${REBASE:+--rebaseline} --out "$out"
    validate_json "$out"
done

for name in $GBENCH; do
    wanted "$name" || continue
    echo "==== bench: $name ===="
    "$BUILD/bench/$name" \
        --benchmark_out="BENCH_$name.json" --benchmark_out_format=json
    validate_json "BENCH_$name.json"
done

echo "==== bench: done ===="
