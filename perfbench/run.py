#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the orbit2 libraries from src/ and the
perfbench binary into .bench_build/perfbench (CMake + Ninja, RelWithDebInfo;
later runs only re-check the build), then runs one workload. Build output
and the human-readable report go to stderr; the last line of stdout is the
binary's JSON result. The serving protocol comes from perfbench/workloads.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("infer_tiled", "train_tiles")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no orbit2 source tree at %s/src; run from a repository checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(HERE, "workloads.json")) as f:
        serve = json.load(f)["serve"]
    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out-dir", out_dir, "--git-sha", git_sha(),
        "--light-rps", str(serve["light_rps"]), "--heavy-rps", str(serve["heavy_rps"]),
        "--latency-limit-ms", str(serve["latency_limit_ms"]),
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
