#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload batch_solve --seed 1 --trace 0
  python3 perfbench/run.py --workload serve_tenants --repeat 10   # steadiness
  python3 perfbench/run.py --selftest                             # own tests

The first call configures and builds perfbench/ (Release, no Buggify) into
.bench_build/perfbench; later calls only re-check the build. A run prints
its machine_shape and metric lines, and as its last line the result object
{"correct", "attempted", "failed", "metrics"}. A failed build or output
check exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "run"
RUN_TIMEOUT_S = 170


def build(target):
    """Configures and builds `target`; build output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / target


def revision():
    """The git revision when available, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, rev, echo):
    """Runs one workload; returns (exit code, parsed result or None)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--revision", rev, "--workdir", str(RUN_DIR)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    sys.stderr.write(proc.stderr)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode, None
    lines = proc.stdout.strip().splitlines()
    return 0, json.loads(lines[-1]) if lines else None


def repeat(binary, args, rev):
    """Steadiness mode: one workload over consecutive seeds; prints each
    end-to-end metric's median and quartiles against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.seed, args.seed + args.repeat):
        code, result = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, rev, echo=False)
        if code != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {code})")
            return 1
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"\n{args.workload}: {args.repeat} runs")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>7}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("ok" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {bound if bound is not None else '':>7} "
              f"{verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N consecutive seeds and print quartiles")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        binary = build("perfbench_test" if args.selftest else "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: build failed: {error}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(binary)], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    rev = revision()
    if args.repeat > 0:
        return repeat(binary, args, rev)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, rev, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
