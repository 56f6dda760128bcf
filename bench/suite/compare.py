#!/usr/bin/env python3
"""Compare two sets of kvmarm_bench runs, or report the spread of one.

    python3 bench/suite/compare.py A_DIR [B_DIR]

Each file in a directory is the standard output of one untraced run
(run.py ... --trace 0 > DIR/NAME). Runs are grouped by workload.

With one directory, print for each workload x end-to-end metric the
median, the quartiles and the spread (q3 - q1) / median, and whether the
spread is within a third of the metric's bound in BENCHMARK.json (WIDE
otherwise; this is informational and does not change the exit code).

With two, A is the parent and B the change. For each workload x end-to-end
metric print both medians and quartiles, the fraction of seed-matched pairs
B wins (ties count for neither) and a verdict:

  unresolved  A's spread exceeds the bound and B does not beat every A run
  better      B wins at least 9/10 of the pairs and the medians differ by
              more than A's interquartile distance
  worse       B's median is worse than A's by more than the bound
  same        otherwise

Exits 1 if runs are missing or any verdict is worse or unresolved.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from every run file in a dir."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        detail = result = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                rec = json.loads(line)
                if "kvmarm_bench" in rec:
                    detail = rec["kvmarm_bench"]
                elif "metrics" in rec:
                    result = rec
        if detail is None or result is None or detail["trace"]:
            continue
        if not result["correct"]:
            print("warning: %s reports failed units" % path, file=sys.stderr)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(detail["workload"], {})[detail["seed"]] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True if value b beats value a."""
    return b < a if direction == "lower" else b > a


def verdict(a, b, metric):
    """a, b: {seed: value} for the parent and the change."""
    bound, direction = metric["bound"], metric["better"]
    ma, mb = statistics.median(a.values()), statistics.median(b.values())
    q1, q3 = quartiles(list(a.values()))
    pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b))] or \
        list(zip(sorted(a.values()), sorted(b.values())))
    wins = sum(better(x, y, direction) for x, y in pairs) / len(pairs)
    worse_by = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
    all_better = all(better(x, y, direction)
                     for x in a.values() for y in b.values())
    if (q3 - q1) / ma > bound and not all_better:
        return wins, "unresolved"
    if (wins >= 0.9 and abs(mb - ma) > q3 - q1 and worse_by < 0) \
            or all_better:
        return wins, "better"
    if worse_by > bound:
        return wins, "worse"
    return wins, "same"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sets = [load_runs(d) for d in argv[1:]]
    bad = False
    for workload in sorted(set().union(*sets)):
        for m in metrics:
            name = m["name"]
            cols = []
            for runs in sets:
                vals = {s: v[name] for s, v in runs.get(workload, {}).items()
                        if name in v}
                cols.append(vals)
            if not all(cols):
                print("%-12s %-12s missing runs" % (workload, name))
                bad = True
                continue
            line = "%-12s %-12s" % (workload, name)
            for vals in cols:
                v = list(vals.values())
                q1, q3 = quartiles(v)
                line += "  n=%-2d median %.6g [%.6g, %.6g]" % (
                    len(v), statistics.median(v), q1, q3)
            if len(cols) == 1:
                v = list(cols[0].values())
                q1, q3 = quartiles(v)
                spread = (q3 - q1) / statistics.median(v)
                ok = spread <= m["bound"] / 3
                line += "  spread %.2f%% (bound %.0f%%) %s" % (
                    100 * spread, 100 * m["bound"],
                    "ok" if ok else "WIDE")
            else:
                wins, v = verdict(cols[0], cols[1], m)
                line += "  wins %.2f  %s" % (wins, v)
                bad = bad or v in ("worse", "unresolved")
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
