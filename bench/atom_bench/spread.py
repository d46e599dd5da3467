#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median -- the spread
BENCHMARK.json's bounds are set against. Run from the repository root:

    python3 bench/atom_bench/spread.py --seeds 1-10
    python3 bench/atom_bench/spread.py --seeds 11-15 --baseline \
        bench/atom_bench/baseline.json

--baseline merges each workload's medians and spreads into the named file,
under "end_to_end" (--trace 0) or "per_layer" (--trace 1), with the host
fingerprint the benchmark prints and the commit measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(config, workload, seed, trace):
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    fingerprint = next((l for l in lines if l.startswith("# atom_bench:")), "")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return fingerprint, result["metrics"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="",
                        help="comma-separated (default: all)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--baseline", default="",
                        help="write medians and spreads to this file")
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's value too")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in config["workloads"]])
    seeds = parse_seeds(args.seeds)

    rows_by_workload = {}
    host = ""
    worst = {}
    for workload in workloads:
        samples = {}
        for seed in seeds:
            fingerprint, metrics = run_once(config, workload, seed,
                                            args.trace)
            host = fingerprint.removeprefix("# atom_bench: ")
            for name, m in metrics.items():
                samples.setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
            print(f"  {workload} seed {seed}: done", file=sys.stderr)
        print(f"{workload} ({len(seeds)} seeds)")
        rows = {}
        for name, (unit, values) in samples.items():
            median, iqr = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {name:40s} {median:14.4f} {unit:8s} "
                  f"spread {iqr:7.2%}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in values))
            rows[name] = {"unit": unit, "median": median, "iqr_frac": iqr}
            worst[name] = max(worst.get(name, 0.0), iqr)
        rows_by_workload[workload] = {"seeds": seeds, "metrics": rows}
    print("worst spread per metric over the workloads:")
    for name, iqr in worst.items():
        print(f"  {name:40s} {iqr:7.2%}")
    if args.baseline:
        baseline = {}
        if os.path.exists(args.baseline):
            with open(args.baseline) as f:
                baseline = json.load(f)
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True).stdout.strip()
        except OSError:
            commit = ""
        baseline.update({"host": host, "run_seconds": config["run_seconds"],
                         "commit": commit or "unknown"})
        section = baseline.setdefault(
            "per_layer" if args.trace else "end_to_end", {})
        section.update(rows_by_workload)
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
