#!/usr/bin/env python3
"""Check that EXPERIMENTS.md quotes the paper programs' committed output.

    python3 tools/check_experiments.py [EXPERIMENTS.md]

For Table 3 and Figures 3-7, the EXPERIMENTS.md section whose heading
names the program (for example "(`fig4_lmbench_smp`)") must hold a
markdown table with exactly the rows of bench/golden/<program>.txt, in the
same order and with the same values. Table 3's markdown columns interleave
measured and paper values (ARM | paper | ARM-noVGIC | paper | ...); the
golden lists the measured columns, then the paper's. Thousands separators
are ignored; "~" or any other difference in a cell is a mismatch.

Prints one line per mismatch and exits 1 if there is any, 0 otherwise.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = ("table3_micro", "fig3_lmbench_up", "fig4_lmbench_smp",
            "fig5_apps_up", "fig6_apps_smp", "fig7_energy")


def golden_rows(program):
    """(label, cells) of each table row of a golden."""
    rows = []
    with open(os.path.join(ROOT, "bench", "golden", program + ".txt"),
              encoding="utf-8") as f:
        lines = f.read().splitlines()
    # Row lines follow the "===" title and the column header, up to the
    # first line whose cells are not all numbers.
    for line in lines[2:]:
        m = re.match(r"^(\S.*?)\s{2,}(-?[\d.]+(?:\s.*)?)$", line)
        if not m:
            break
        cells = m.group(2).replace("|", " ").split()
        if not all(re.fullmatch(r"-?[\d.]+", c) for c in cells):
            break
        rows.append((m.group(1).strip(), cells))
    return rows


def markdown_rows(text, program):
    """(label, cells) of each table row in the section naming program."""
    heading = re.compile(r"^## .*\(`%s`\)\s*$" % re.escape(program))
    rows, in_section = [], False
    for line in text.splitlines():
        if line.startswith("## "):
            if in_section:
                break
            in_section = bool(heading.match(line))
            continue
        if not in_section or not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if set(cells[0]) <= set("-") or not cells[0] or cells[0] == "cycles":
            continue  # header or separator row
        rows.append((cells[0], [c.replace(",", "") for c in cells[1:]]))
    return rows


def expected(program, cells):
    """Golden cells in the column order EXPERIMENTS.md prints them."""
    if program != "table3_micro":
        return cells
    half = len(cells) // 2
    out = []
    for measured, paper in zip(cells[:half], cells[half:]):
        out += [measured, paper]
    return out


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "EXPERIMENTS.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    problems = []
    for program in PROGRAMS:
        md = markdown_rows(text, program)
        if not md:
            problems.append("%s: no section with a table" % program)
            continue
        gold = golden_rows(program)
        if [label for label, _ in md] != [label for label, _ in gold]:
            problems.append("%s: rows %s, golden has %s" % (
                program, [l for l, _ in md], [l for l, _ in gold]))
            continue
        for (label, got), (_, cells) in zip(md, gold):
            want = expected(program, cells)
            if got != want:
                problems.append("%s: %s: EXPERIMENTS.md has %s, golden %s"
                                % (program, label, " | ".join(got),
                                   " | ".join(want)))
    for p in problems:
        print(p)
    if problems:
        return 1
    print("EXPERIMENTS.md matches bench/golden/ for %d programs"
          % len(PROGRAMS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
