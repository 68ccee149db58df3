#!/usr/bin/env python3
"""Checks tools/orbit2_trace.py's self-time accounting and OpKind labels.

    test_trace_self.py --root REPO

1. On trace_self_fixture.json (hand-written nested spans), per-name and
   per-category self times must equal the values worked out by hand below:
   children on the same thread are subtracted, spans on another thread are
   not, dispatch spans (parallel_for) are transparent, and graph/op spans
   are labeled by OpKind name.
2. The OP_KINDS table must list src/graph/ir.hpp's OpKind enumerators in
   declaration order, so labels cannot drift from the executor's numbering.
Exit 0 on success, 1 with a message per failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from collections import defaultdict

# Self time per label on pid 1 (wall clock), by hand from the fixture:
#   tiles/tile 100 - op(50) - op(20)                           = 30
#   graph/op:kMhsa 50 - flash(20); its parallel_for is transparent = 30
#   attention_flash_forward 20 - gemm(4)                       = 16
#   gemm 4 on tid 0, plus 40 on tid 1 (not a child of the tile) = 44
#   graph/op:kElementwise 20, graph/op:kind=99 5, parallel_for 0
EXPECTED_SELF = {
    "tiles/tile": 30.0,
    "graph/op:kMhsa": 30.0,
    "attention_flash_forward": 16.0,
    "gemm": 44.0,
    "graph/op:kElementwise": 20.0,
    "graph/op:kind=99": 5.0,
    "parallel_for": 0.0,
}
EXPECTED_CATEGORY_SELF = {
    "perfbench.infer": 30.0,
    "graph": 55.0,
    "attention": 16.0,
    "kernels": 44.0,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="repository root")
    args = parser.parse_args()
    tools = os.path.join(args.root, "tools")
    sys.path.insert(0, tools)
    import orbit2_trace  # pylint: disable=import-outside-toplevel

    failures = []
    fixture = os.path.join(args.root, "tests", "core", "trace_self_fixture.json")
    with open(fixture, encoding="utf-8") as handle:
        trace = json.load(handle)
    if orbit2_trace.validate(trace):
        failures.append(f"fixture invalid: {orbit2_trace.validate(trace)}")

    by_label = defaultdict(float)
    by_cat = defaultdict(float)
    for ev, self_us in orbit2_trace.self_times(
            orbit2_trace.span_events(trace, simulated=False)):
        by_label[orbit2_trace.span_label(ev)] += self_us
        by_cat[ev["cat"]] += self_us
    if dict(by_label) != EXPECTED_SELF:
        failures.append(f"self time by name {dict(by_label)} != {EXPECTED_SELF}")
    if dict(by_cat) != EXPECTED_CATEGORY_SELF:
        failures.append(
            f"self time by category {dict(by_cat)} != {EXPECTED_CATEGORY_SELF}")

    result = subprocess.run(
        [sys.executable, os.path.join(tools, "orbit2_trace.py"), "--self",
         fixture], capture_output=True, text=True, check=False)
    if result.returncode != 0:
        failures.append(f"orbit2_trace.py --self exited {result.returncode}")
    for needle in ("== self time (wall clock) ==", "graph/op:kMhsa",
                   "== per-category self time (wall clock) =="):
        if needle not in result.stdout:
            failures.append(f"--self output lacks {needle!r}")

    with open(os.path.join(args.root, "src", "graph", "ir.hpp"),
              encoding="utf-8") as handle:
        header = handle.read()
    body = re.search(r"enum class OpKind\b[^{]*\{(.*?)\};", header, re.S)
    if body is None:
        failures.append("src/graph/ir.hpp: no enum class OpKind")
    else:
        declared = tuple(re.findall(r"^\s*(k\w+)\s*[,=]", body.group(1), re.M))
        if declared != orbit2_trace.OP_KINDS:
            failures.append(f"OP_KINDS {orbit2_trace.OP_KINDS} != ir.hpp "
                            f"OpKind {declared}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("trace self-time fixture and OpKind table ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
