#!/usr/bin/env python3
"""Self-test for tools/bench_diff.py.

Usage: bench_diff_test.py BENCH_DIFF_PATH

Runs the diff on crafted run_bench.py documents and asserts on what it
compares and how it exits: a benchmark recorded with repetitions compares
as the median of its rows, a benchmark with one row compares as that row,
and a slowdown past --threshold is flagged as a regression (exit 1).
Exits non-zero with a description of the first case that disagrees.
"""

import json
import os
import subprocess
import sys
import tempfile


def doc(rows):
    """A run_bench.py document: rows are (name, real_time_ms) pairs."""
    return {
        "schema_version": 1,
        "host": {"nproc": 4},
        "runs": [{
            "binary": "bench_scaling",
            "benchmarks": [
                {"name": name, "iterations": 100, "real_time_ms": ms,
                 "cpu_time_ms": ms,
                 "counters": {"process.max_rss_kb": 1024.0}}
                for name, ms in rows
            ],
        }],
    }


def run_diff(tool, old, new, *args):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, d in enumerate((old, new)):
            path = os.path.join(tmp, f"bench{i}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(d, f)
            paths.append(path)
        return subprocess.run([sys.executable, tool, *paths, *args],
                              capture_output=True, text=True)


def compared(proc, name):
    """The 'OLDms -> NEWms' pair the diff printed for benchmark `name`."""
    for line in proc.stdout.splitlines():
        if f":{name} " in line:
            fields = line.split()
            return float(fields[1][:-2]), float(fields[3][:-2])
    return None


def main(argv):
    if len(argv) != 2:
        print("usage: bench_diff_test.py BENCH_DIFF_PATH", file=sys.stderr)
        return 2
    tool = argv[1]
    failures = []

    # Five repetitions of one benchmark, the slowest last: the median row
    # (1.10 ms) is compared, not the last one (1.42 ms).
    reps = [("BM_A", t) for t in (1.05, 1.06, 1.10, 1.40, 1.42)]
    proc = run_diff(tool, doc(reps), doc([("BM_A", 1.10)]))
    if proc.returncode != 0 or compared(proc, "BM_A") != (1.10, 1.10):
        failures.append(f"repetitions: want median 1.10 -> 1.10, exit 0; "
                        f"got {compared(proc, 'BM_A')}, exit "
                        f"{proc.returncode}")

    # One row per side compares as that row.
    proc = run_diff(tool, doc([("BM_B", 2.00)]), doc([("BM_B", 2.20)]))
    if proc.returncode != 0 or compared(proc, "BM_B") != (2.00, 2.20):
        failures.append(f"single row: want 2.00 -> 2.20, exit 0; got "
                        f"{compared(proc, 'BM_B')}, exit {proc.returncode}")

    # A slowdown past the threshold fails the diff and is named.
    proc = run_diff(tool, doc([("BM_C", 1.00)]), doc([("BM_C", 1.50)]),
                    "--threshold", "25")
    if proc.returncode != 1 or "REGRESSION" not in proc.stdout \
            or "BM_C" not in proc.stderr:
        failures.append(f"regression: want exit 1 naming BM_C; got exit "
                        f"{proc.returncode}, stdout {proc.stdout!r}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("all 3 bench_diff cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
