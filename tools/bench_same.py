#!/usr/bin/env python3
"""Checks that two bench_runner outputs agree in every deterministic field.

Usage: tools/bench_same.py DIR_OR_FILE_A DIR_OR_FILE_B

Given two BENCH_*.json files, compares them; given two directories,
compares every BENCH_*.json file of each by name (both must hold the same
set). Wall-clock quantities (the WALL keys, at any depth) are dropped
before the comparison: they differ from run to run by nature. Each
differing field is printed as FILE: PATH: A -> B, where PATH is its JSON
path (e.g. protocols[1].hashes). Exit 0 when everything matches, 1 on a
difference, 2 on a usage error.
"""

import json
import os
import sys

# Wall-clock quantities: excluded from every comparison.
WALL = {"wall_seconds", "wall_ms", "events_per_sec", "jobs", "run_wall_ms"}


def strip(obj):
    """Returns `obj` without WALL keys, at any depth."""
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k not in WALL}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def load(path):
    with open(path) as f:
        return strip(json.load(f))


def diff(a, b, path=""):
    """Yields (path, a_value, b_value) for every field where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                yield sub, a.get(key, "<absent>"), b.get(key, "<absent>")
            else:
                yield from diff(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def bench_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("BENCH_") and name.endswith(".json"))


def main(argv):
    usage = __doc__.strip().splitlines()[2]
    if len(argv) != 3:
        print(usage, file=sys.stderr)
        return 2
    a, b = argv[1], argv[2]
    if os.path.isfile(a) and os.path.isfile(b):
        todo = [(os.path.basename(a), a, b)]
    elif os.path.isdir(a) and os.path.isdir(b):
        names = bench_files(a)
        if names != bench_files(b):
            only = sorted(set(names) ^ set(bench_files(b)))
            print("bench_same: BENCH file sets differ: " + ", ".join(only))
            return 1
        if not names:
            print(f"bench_same: no BENCH_*.json files in {a}")
            return 1
        todo = [(n, os.path.join(a, n), os.path.join(b, n)) for n in names]
    else:
        print(usage, file=sys.stderr)
        return 2
    differ = 0
    for label, pa, pb in todo:
        fields = list(diff(load(pa), load(pb)))
        differ += bool(fields)
        for path, va, vb in fields:
            print(f"{label}: {path}: {json.dumps(va)} -> {json.dumps(vb)}")
    print(f"bench_same: {len(todo) - differ}/{len(todo)} identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
