#!/usr/bin/env python3
"""End-to-end benchmark of hivesim: build, run one workload, check outputs.

    python3 hivebench/run.py --workload fleet_churn --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds hivebench/ (and the hivesim libraries
it links) under .bench_build/hivebench, runs the named workload, compares
its simulated outputs with the committed reference when the seed is the
default one, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Everything above that line is the human
report. Exits non-zero, without a result line, when the benchmark cannot
be built or run. See hivebench/NOTES.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
REL_TOL = 1e-9
# A run must end within 180 s (the first one in a checkout also builds);
# leave room for the result check.
RUN_DEADLINE_SEC = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the hivebench binary (incremental)."""
    subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        cwd=root, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hivebench", "-j4"],
        cwd=root, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "hivebench")


def compare_outputs(outputs, reference):
    """Yields one (ok, description) per reference check."""
    for kind in ("int", "real"):
        got = outputs.get(kind, {})
        want = reference.get(kind, {})
        for name in sorted(set(got) | set(want)):
            if name not in got or name not in want:
                where = "reference" if name not in want else "run"
                yield False, f"output {name} missing from the {where}"
                continue
            a, b = got[name], want[name]
            if kind == "int":
                ok = a == b
            else:
                ok = (math.isfinite(a) and
                      abs(a - b) <= REL_TOL * max(abs(a), abs(b)))
            yield ok, f"output {name}: got {a!r}, reference {b!r}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="write this run's outputs as the committed reference "
             "(default seed only)")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        log(f"run.py: unknown workload {args.workload!r}; one of {workloads}")
        return 2
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(root, ".bench_build", "hivebench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"run.py: build failed: {error}")
        return 1
    start = time.monotonic()

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(out_dir, stem + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--result", result_path]
    if args.trace:
        command += ["--spans-out", os.path.join(out_dir, stem + ".spans.tsv")]
    try:
        run = subprocess.run(
            command, cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_DEADLINE_SEC - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("run.py: the benchmark did not finish in time")
        return 1
    sys.stdout.write(run.stdout)
    if run.returncode != 0 or not os.path.exists(result_path):
        log(f"run.py: hivebench exited with code {run.returncode}")
        return 1
    with open(result_path) as f:
        result = json.load(f)

    attempted = result["attempted"]
    failed = result["failed"]
    failures = list(result["failures"])
    reference_path = os.path.join(BENCH_DIR, "reference",
                                  args.workload + ".json")
    if args.seed == DEFAULT_SEED and args.record_reference:
        with open(reference_path, "w") as f:
            json.dump(result["outputs"], f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"run.py: wrote {reference_path}")
    elif args.seed == DEFAULT_SEED:
        with open(reference_path) as f:
            reference = json.load(f)
        for ok, what in compare_outputs(result["outputs"], reference):
            attempted += 1
            if not ok:
                failed += 1
                failures.append(what)

    print(f"\nCorrectness: {attempted} operations and checks, {failed} "
          f"failed; failed_ops_frac {failed / attempted:.6g}")
    for what in failures[:20]:
        print(f"  FAILED: {what}")

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if (got is None or got["unit"] != metric["unit"] or
                not isinstance(got["value"], (int, float)) or
                not math.isfinite(got["value"])):
            log(f"run.py: metric {metric['name']} missing, not a finite "
                f"number or not in {metric['unit']}")
            return 1
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
