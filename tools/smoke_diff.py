#!/usr/bin/env python3
"""Compare the simulated results of two kvmarm_bench --smoke outputs.

    .bench_build/kvmarm_bench --smoke > A.txt     # parent build
    .bench_build/kvmarm_bench --smoke > B.txt     # changed build
    python3 tools/smoke_diff.py A.txt B.txt

Each input is the standard output of one `kvmarm_bench --smoke` run: one
{"smoke": {...}} record per workload. Host times are ignored; every field
that the simulation alone decides is compared:

  - the input digests (plan_hash) and the unit counts (correct,
    attempted, failed);
  - the per-layer sim_cycles and every *_sim_cycles;
  - every per-layer count, except sim.fleet.jobs_stolen and
    sim.fleet.jobs_parked, which depend on host thread timing;
  - the other per-layer figures derived from simulated results alone:
    bytes, exits/op, the TLB hit ratio and workload.table3_err_pct (the
    other workload.*_pct are shares of host time).

Prints one line per difference and exits 1 if there is any (or if a
workload is missing from either side), 0 if the two runs agree.
"""

import json
import sys

HOST_TIMED_COUNTS = {"sim.fleet.jobs_stolen", "sim.fleet.jobs_parked"}
DERIVED_UNITS = {"count", "bytes", "exits/op"}
DERIVED_NAMES = {"arm.tlb.hit_ratio", "workload.table3_err_pct"}


def deterministic(name, unit):
    if name in HOST_TIMED_COUNTS:
        return False
    return (name == "sim_cycles" or name.endswith("_sim_cycles") or
            unit in DERIVED_UNITS or name in DERIVED_NAMES)


def load(path):
    """{workload: {field: value}} of the compared fields of one run."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line).get("smoke")
            if rec is None:
                continue
            res = rec["result"]
            fields = {"plan_hash": rec["plan_hash"]}
            for key in ("correct", "attempted", "failed"):
                fields[key] = res[key]
            for name, m in rec["per_layer"].items():
                if deterministic(name, m["unit"]):
                    fields[name] = m["value"]
            out[rec["workload"]] = fields
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: smoke_diff.py A.txt B.txt", file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    diffs = 0
    for wl in sorted(set(a) | set(b)):
        if wl not in a or wl not in b:
            print("%s: only in %s" % (wl, argv[1] if wl in a else argv[2]))
            diffs += 1
            continue
        for field in sorted(set(a[wl]) | set(b[wl])):
            va, vb = a[wl].get(field), b[wl].get(field)
            if va != vb:
                print("%s %s: %s -> %s" % (wl, field, va, vb))
                diffs += 1
    if not a:
        print("no smoke records in %s" % argv[1])
        diffs += 1
    n = len(set(a) & set(b))
    fields = sum(len(a[wl]) for wl in set(a) & set(b))
    print("smoke_diff: %d workloads, %d fields, %d differences" %
          (n, fields, diffs))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
