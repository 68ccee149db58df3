#!/usr/bin/env python3
"""Smoke self-check of the repository benchmark.

    python3 perfbench/smoke_test.py [--seconds S]

Run from the repository root. Runs every workload of BENCHMARK.json briefly,
untraced and traced, through perfbench/run.py, and checks the result line:
exactly the keys correct/attempted/failed/metrics, correct outputs with no
failed operation, and exactly the end-to-end (untraced) or per-layer
(traced) metrics of BENCHMARK.json, each a finite number with its unit.
Exits 1 on the first failed check.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(result, expected, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("outputs not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    if result.get("failed") != 0:
        problems.append("failed %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
        if metric.get("unit") != unit:
            problems.append("%s unit %r, want %r" % (name, metric.get("unit"), unit))
    for problem in problems:
        print("FAIL %s: %s" % (label, problem))
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    suites = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in suites.items():
            label = "%s trace=%d" % (workload, trace)
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", "1",
                                    "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("FAIL %s: exit %d, no result" % (label, proc.returncode))
                ok = False
                continue
            if check(json.loads(lines[-1]), expected, label):
                print("ok   %s: %d metrics" % (label, len(expected)))
            else:
                ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
