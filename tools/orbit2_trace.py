#!/usr/bin/env python3
"""Validate and summarize ORBIT-2 Chrome trace-event JSON.

Usage:
    orbit2_trace.py TRACE.json              # validate + print summary
    orbit2_trace.py --validate TRACE.json   # validate only (exit 1 on errors)
    orbit2_trace.py --top N TRACE.json      # show N top spans (default 15)
    orbit2_trace.py --self TRACE.json       # add the per-name self-time table

The input is the format written by orbit2::obs::write_chrome_trace():
{"traceEvents": [...], ...} with "X" (complete) span events, "M" metadata
events, and "C" counter events. Wall-clock spans live on pid 1, simulated
hwsim time on pid 2. The same file loads in chrome://tracing and Perfetto.

A span's self time is its duration minus the part covered by child spans
on the same thread, so self times add up to the traced busy time where
inclusive durations of nested spans do not. The kernel layer's dispatch
spans (`parallel_for`, `parallel_reduce`) are transparent: a dispatch runs
its caller's own loop, so its time stays with the caller and it reports no
self time. `graph/op` spans are labeled by their OpKind (`graph/op:kMhsa`)
instead of the bare `args.kind` number.
"""

import argparse
import json
import sys
from collections import defaultdict

VALID_PHASES = {"X", "M", "C"}

# Spans whose time counts as their parent's own (see the module docstring).
DISPATCH_SPANS = {"parallel_for", "parallel_reduce"}

# orbit2::graph::OpKind enumerators in declaration order (src/graph/ir.hpp);
# a ctest checks this table against the header.
OP_KINDS = (
    "kElementwise", "kMatmul", "kLayerNorm", "kSliceRows", "kConcatRows",
    "kPermuteRows", "kConv2d", "kResizeBilinear", "kImageToTokens",
    "kTokensToImage", "kMhsa", "kView", "kCustom",
)


def validate(trace):
    """Returns a list of schema-violation strings (empty = valid)."""
    errors = []
    if not isinstance(trace, dict):
        return ["top level is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            errors.append(f"{where}: unexpected ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing/empty name")
        if ph == "M":
            continue
        for key in ("ts", "pid", "tid"):
            if not isinstance(ev.get(key), (int, float)):
                errors.append(f"{where}: missing numeric {key}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)):
                errors.append(f"{where}: X event missing numeric dur")
            elif dur < 0:
                errors.append(f"{where}: negative dur {dur}")
            if isinstance(ev.get("ts"), (int, float)) and ev["ts"] < 0:
                errors.append(f"{where}: negative ts {ev['ts']}")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            errors.append(f"{where}: C event missing args")
    return errors


def span_events(trace, simulated):
    want_pid = 2 if simulated else 1
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X" and ev.get("pid") == want_pid:
            yield ev


def span_label(ev):
    """Span name, with graph/op spans qualified by their OpKind name."""
    name = ev["name"]
    if name != "graph/op":
        return name
    kind = ev.get("args", {}).get("kind")
    if isinstance(kind, int) and 0 <= kind < len(OP_KINDS):
        return f"graph/op:{OP_KINDS[kind]}"
    return f"graph/op:kind={kind}"


def self_times(events):
    """Yields (event, self_us): dur minus the time child spans on the same
    (pid, tid) cover. Children are spans that start inside the parent; the
    part of a child past its parent's end, or overlapping an earlier
    sibling, is not subtracted twice. Dispatch spans yield 0 and are not
    children."""
    by_thread = defaultdict(list)
    for ev in events:
        if ev["name"] in DISPATCH_SPANS:
            yield ev, 0.0
        else:
            by_thread[(ev.get("pid"), ev.get("tid"))].append(ev)
    for evs in by_thread.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, end, self_us, covered_until]
        for ev in evs:
            start = ev["ts"]
            end = start + ev["dur"]
            while stack and stack[-1][1] <= start:
                done = stack.pop()
                yield done[0], done[2]
            if stack:
                parent = stack[-1]
                lo = max(start, parent[3])
                hi = min(end, parent[1])
                if hi > lo:
                    parent[2] -= hi - lo
                    parent[3] = hi
            stack.append([ev, end, ev["dur"], start])
        while stack:
            done = stack.pop()
            yield done[0], done[2]


def summarize(trace, top_n, show_self=False):
    lines = []
    for simulated, label in ((False, "wall clock"), (True, "simulated clock")):
        # label -> [count, total_us, self_us]
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_cat = defaultdict(float)  # category -> self_us
        for ev, self_us in self_times(span_events(trace, simulated)):
            entry = by_name[span_label(ev)]
            entry[0] += 1
            entry[1] += ev["dur"]
            entry[2] += self_us
            by_cat[ev.get("cat", "?")] += self_us
        if not by_name:
            continue
        lines.append(f"== spans ({label}) ==")
        lines.append(f"{'name':<32} {'count':>8} {'total ms':>12} {'mean us':>12}")
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1][1])
        for name, (count, total_us, _) in ranked[:top_n]:
            lines.append(
                f"{name:<32} {count:>8} {total_us / 1000.0:>12.3f} "
                f"{total_us / count:>12.1f}"
            )
        if len(ranked) > top_n:
            lines.append(f"... {len(ranked) - top_n} more span names")
        lines.append("")
        if show_self:
            lines.append(f"== self time ({label}) ==")
            lines.append(f"{'name':<32} {'count':>8} {'self ms':>12} "
                         f"{'self us/call':>12} {'total ms':>12}")
            ranked = sorted(by_name.items(), key=lambda kv: -kv[1][2])
            for name, (count, total_us, self_us) in ranked[:top_n]:
                lines.append(
                    f"{name:<32} {count:>8} {self_us / 1000.0:>12.3f} "
                    f"{self_us / count:>12.1f} {total_us / 1000.0:>12.3f}"
                )
            if len(ranked) > top_n:
                lines.append(f"... {len(ranked) - top_n} more span names")
            lines.append("")
        lines.append(f"== per-category self time ({label}) ==")
        for cat, self_us in sorted(by_cat.items(), key=lambda kv: -kv[1]):
            lines.append(f"{cat:<32} {self_us / 1000.0:>12.3f} ms")
        lines.append("")

    counters = [
        ev for ev in trace["traceEvents"]
        if ev.get("ph") == "C" and isinstance(ev.get("args"), dict)
    ]
    if counters:
        lines.append("== counters ==")
        for ev in sorted(counters, key=lambda e: e["name"]):
            for key, value in ev["args"].items():
                lines.append(f"{ev['name']:<40} {key} = {value}")
        lines.append("")

    other = trace.get("otherData", {})
    if other:
        lines.append("== otherData ==")
        for key, value in sorted(other.items()):
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--validate", action="store_true",
                        help="validate only; no summary output")
    parser.add_argument("--top", type=int, default=15, metavar="N",
                        help="top span names to show (default 15)")
    parser.add_argument("--self", dest="show_self", action="store_true",
                        help="also show per-name self time (duration minus "
                             "same-thread child spans)")
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot parse {args.trace}: {err}", file=sys.stderr)
        return 1

    errors = validate(trace)
    if errors:
        for err in errors[:50]:
            print(f"error: {err}", file=sys.stderr)
        if len(errors) > 50:
            print(f"error: ... {len(errors) - 50} more", file=sys.stderr)
        return 1

    n_events = len(trace["traceEvents"])
    print(f"{args.trace}: valid ({n_events} events)")
    if not args.validate:
        summary = summarize(trace, args.top, args.show_self)
        if summary:
            print()
            print(summary)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # e.g. `orbit2_trace.py t.json | head`; exit quietly like cat does.
        sys.exit(0)
