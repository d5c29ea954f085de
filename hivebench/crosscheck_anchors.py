#!/usr/bin/env python3
"""Cross-checks paper_sweep's Fig. 7-10 anchor table against the benches.

    python3 hivebench/crosscheck_anchors.py --bench-dir build/bench

Runs bench_fig7_intra_zone, bench_fig8_transatlantic,
bench_fig9_intercontinental and bench_fig10_multicloud from an existing
build of the repository (paper tables only, no timing), reads the anchor
rows they write under HIVESIM_BENCH_CSV_DIR, and checks, row by row in
the benches' own order, that:
  * the paper value copied into hivebench/paper_sweep.cc is the bench's,
  * the simulated value in hivebench/reference/paper_sweep.json (seed 1)
    prints the same as the bench's, at the benches' %.6g precision.
Exits 1 on any mismatch. Not part of a benchmark run.
"""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FIGURES = [
    ("bench_fig7_intra_zone", "fig__7_anchors.csv"),
    ("bench_fig8_transatlantic", "fig__8_anchors.csv"),
    ("bench_fig9_intercontinental", "fig__9_anchors.csv"),
    ("bench_fig10_multicloud", "fig__10_anchors.csv"),
]


def hivebench_anchors():
    """(source, label, paper value) in kAnchors order."""
    with open(os.path.join(BENCH_DIR, "paper_sweep.cc")) as f:
        text = f.read()
    rows = re.findall(
        r'\{"(bench/[^"]+)",\s*"([^"]+)",\s*([0-9.]+(?:\s*\*\s*[0-9.]+)?),',
        text)
    anchors = []
    for source, label, paper in rows:
        value = 1.0
        for factor in paper.split("*"):
            value *= float(factor)
        anchors.append((source, label, value))
    return anchors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the built bench_fig* binaries")
    args = parser.parse_args()

    bench_rows = []
    with tempfile.TemporaryDirectory() as csv_dir:
        env = dict(os.environ, HIVESIM_BENCH_CSV_DIR=csv_dir)
        for binary, csv_name in FIGURES:
            subprocess.run([os.path.join(args.bench_dir, binary),
                            "--benchmark_filter=none"],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            with open(os.path.join(csv_dir, csv_name)) as f:
                bench_rows += list(csv.DictReader(f))

    with open(os.path.join(BENCH_DIR, "reference", "paper_sweep.json")) as f:
        simulated = json.load(f)["real"]
    anchors = hivebench_anchors()
    if len(anchors) != len(bench_rows):
        print(f"{len(anchors)} hivebench anchors vs {len(bench_rows)} bench "
              "rows")
        return 1
    mismatches = 0
    for (source, label, paper), row in zip(anchors, bench_rows):
        ours = simulated["anchor/" + label]
        ok = ("%.6g" % paper == row["paper"] and
              "%.6g" % ours == row["simulated"])
        mismatches += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {label:28s} paper {paper:<8.6g} "
              f"(bench {row['paper']:>7s})  simulated {ours:<10.6g} "
              f"(bench {row['simulated']:>8s})  {source}")
    print(f"{len(anchors) - mismatches}/{len(anchors)} anchors match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
