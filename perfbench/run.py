#!/usr/bin/env python3
"""End-to-end benchmark for proxdelay: builds the perfbench package (Release)
from the sources in this checkout, runs one workload, checks that every
printed metric name and unit matches BENCHMARK.json, and prints the result
JSON as the last line of standard output.

    python3 perfbench/run.py --workload characterize_nand3 --seed 7 \
        --seconds 10 --trace 0

Exit codes: 0 every output check passed; 1 an output check failed (the
result line says "correct": false); 2 usage, build or set-up error (no
result line); 3 the binary refused a non-Release build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_quiet(cmd, what):
    """Runs a build step, showing its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator, "configure")
    run_quiet(["cmake", "--build", BUILD_DIR, "--parallel",
               str(min(4, nproc()))], "build")
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode == 3:
        die("the benchmark binary refused a non-Release build", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        die(f"no result line (binary exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    # Every printed name and unit must be exactly the set BENCHMARK.json
    # declares for this mode.
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        for name in sorted(set(expected) | set(printed)):
            if expected.get(name) != printed.get(name):
                print(f"FAILED: metric {name}: printed unit "
                      f"{printed.get(name)!r}, BENCHMARK.json "
                      f"{expected.get(name)!r}")
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
