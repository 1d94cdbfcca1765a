#!/usr/bin/env python3
"""Checks tools/bench_same.py on the fixtures in tests/data/bench_same.

Usage: tests/bench_same_test.py

A pair that differs only in wall-clock (WALL) keys must compare equal
(exit 0); a pair where one per-seed `hashes` moved must exit 1 and print
that field's JSON path with both values.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_same.py")
DATA = os.path.join(ROOT, "tests", "data", "bench_same")


def run(a, b):
    proc = subprocess.run(
        [sys.executable, TOOL, os.path.join(DATA, a), os.path.join(DATA, b)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout


def main():
    failures = []
    code, out = run("base.json", "wall_moved.json")
    if code != 0:
        failures.append(f"WALL-only difference: exit {code}, want 0\n{out}")
    code, out = run("base.json", "hash_moved.json")
    want = "base.json: protocols[0].per_seed[1].hashes: 200 -> 201"
    if code != 1:
        failures.append(f"moved hashes: exit {code}, want 1\n{out}")
    if want not in out.splitlines():
        failures.append(f"moved hashes: no line {want!r} in\n{out}")
    if len(out.splitlines()) != 2:  # The moved field and the summary.
        failures.append(f"moved hashes: want exactly one difference\n{out}")
    for failure in failures:
        print("FAIL: " + failure)
    print("bench_same_test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
