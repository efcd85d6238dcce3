#!/usr/bin/env python3
"""Runs every workload with several seeds and reports how steady each
end-to-end metric is: median, quartiles and the interquartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run from the repository root. Prints a Markdown table, then the host CPU
steal of each run; exits 1 when a spread (setup_s excepted) exceeds its
bound. The spread/bound column shows how far each is from the aim of a
third of its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_steal(workload, seed):
    """The run's host CPU steal and contended flag, from its result file."""
    results = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "results"
    notes = json.loads(
        (results / f"{workload}-seed{seed}-trace0.json").read_text())["notes"]
    found = re.search(r"host_steal=([0-9.]+) contended=([01])", notes)
    return float(found.group(1)), found.group(2) == "1"


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, cwd=Path.cwd())
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed statements")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    steal_lines = []
    print("| workload | metric | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        seeds = [args.first_seed + i for i in range(args.runs)]
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        steal = [host_steal(workload, seed) for seed in seeds]
        steal_lines.append(
            f"| {workload} | {' '.join(f'{s:.3f}' for s, _ in steal)} | "
            f"{sum(contended for _, contended in steal)} |")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s" and spread > bound:
                steady = False
            print(f"| {workload} | {name} | {median:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {spread:.3f} | {bound} | {spread / bound:.2f} |",
                  flush=True)
    print("\n| workload | host_steal of each run | contended runs |")
    print("|---|---|---|")
    print("\n".join(steal_lines))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
