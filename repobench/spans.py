#!/usr/bin/env python3
"""Self-time roll-up of a span dump written by the traced benchmark run.

A dump has one JSON object per line: id, parent (0 = root), run, name,
start_ns, end_ns. A span's layer is its name up to the first '.'; its self
time is its duration minus the part of that interval its child spans cover
(children on pool threads may overlap each other, so their union counts).

Usage: python3 repobench/spans.py DUMP.jsonl
prints self and total seconds per layer and per span name, per run.
"""

import collections
import json
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def covered_ns(start, end, intervals):
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans):
    """Returns {span id: self nanoseconds}."""
    children = collections.defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"])
        - covered_ns(s["start_ns"], s["end_ns"], children[s["id"]])
        for s in spans
    }


def rollup(spans, key=lambda s: s["name"].split(".", 1)[0]):
    """Per-run self and total seconds, grouped by `key` (default: layer).

    Returns {group: {"self_s": ..., "total_s": ..., "count": ...}} where the
    times are divided by the number of runs in the dump.
    """
    runs = max(1, len({s["run"] for s in spans}))
    own = self_times(spans)
    out = collections.defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0})
    for s in spans:
        g = out[key(s)]
        g["self_s"] += own[s["id"]] * 1e-9 / runs
        g["total_s"] += (s["end_ns"] - s["start_ns"]) * 1e-9 / runs
        g["count"] += 1
    return dict(out)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans = load(argv[1])
    runs = len({s["run"] for s in spans})
    print(f"{len(spans)} spans over {runs} runs; seconds per run")
    for title, key in (("layer", None), ("span", lambda s: s["name"])):
        groups = rollup(spans) if key is None else rollup(spans, key)
        print(f"\n{title:<28} {'self_s':>12} {'total_s':>12} {'count':>8}")
        for name, g in sorted(groups.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:<28} {g['self_s']:>12.6f} {g['total_s']:>12.6f} {g['count']:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
