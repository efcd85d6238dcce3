#!/usr/bin/env python3
"""Builds the jaguar benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_udf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --list-metrics

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), and the
result, per-layer summary and span files to .bench_build/results. The last
line of standard output is the run's JSON result; build output goes to
standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else Path.cwd() / root


def source_id():
    """The git commit when there is one, else a hash of the source tree."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no engine sources under {ROOT / 'src'}; run from a full checkout")
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", str(out), "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail(f"building {target} failed")
    return out / target


def run(argv, timeout, cwd=None):
    """Runs `argv` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(argv, start_new_session=True, cwd=cwd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{Path(argv[0]).name} did not finish within {timeout} s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric name and unit")
    args = parser.parse_args()

    if args.self_test:
        selftest = build("perfbench_selftest")
        sys.exit(run([str(selftest)], DRIVER_TIMEOUT_S, cwd=selftest.parent))
    driver = build("perfbench_driver")
    if args.list_metrics:
        sys.exit(run([str(driver), "--list-metrics"], 60))
    if not args.workload:
        parser.error("--workload is required")
    results = build_root() / "results"
    work = build_root() / "work"
    sys.exit(run([str(driver), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--work-dir", str(work),
                  "--out-dir", str(results), "--git-sha", source_id()],
                 DRIVER_TIMEOUT_S))


if __name__ == "__main__":
    main()
