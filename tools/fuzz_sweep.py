#!/usr/bin/env python3
"""Time-boxed differential fuzzing sweep.

Usage: fuzz_sweep.py --fuzz-bin PATH --minutes N [options]

Repeatedly invokes `wsvc-fuzz run` in batches, advancing the base seed
each batch, until the time box expires. Prints a digest (batches,
compositions, comps/s, mismatches, corpus size) and exits non-zero if
any batch reported a mismatch or failed to run. Intended for long
background runs; the smoke test in ctest covers the short deterministic
sweep.

Example:
    tools/fuzz_sweep.py --fuzz-bin build/tools/wsvc-fuzz --minutes 30
"""

import argparse
import os
import re
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(
        description="time-boxed wsvc-fuzz differential sweep")
    parser.add_argument("--fuzz-bin", required=True,
                        help="path to the wsvc-fuzz binary")
    parser.add_argument("--minutes", type=float, default=5.0,
                        help="time box in minutes (default 5)")
    parser.add_argument("--batch", type=int, default=200,
                        help="compositions per batch (default 200)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed of the first batch (default 1); "
                             "batch k uses seed+k")
    parser.add_argument("--regimes", default="",
                        help="comma-separated regime rotation "
                             "(default: all)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--corpus", default="tests/corpus",
                        help="where mismatch repros accumulate")
    parser.add_argument("--max-states", type=int, default=0)
    opts = parser.parse_args()

    deadline = time.monotonic() + opts.minutes * 60.0
    batches = 0
    compositions = 0
    mismatches = 0
    errors = 0
    started = time.monotonic()

    while time.monotonic() < deadline:
        seed = opts.seed + batches
        cmd = [opts.fuzz_bin, "run", "--seed", str(seed),
               "--count", str(opts.batch),
               "--jobs", str(opts.jobs), "--shards", str(opts.shards),
               "--corpus", opts.corpus]
        if opts.regimes:
            cmd += ["--regimes", opts.regimes]
        if opts.max_states > 0:
            cmd += ["--max-states", str(opts.max_states)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        batches += 1
        compositions += opts.batch
        summary = re.search(
            r"mismatches: (\d+), generator errors: (\d+)", proc.stdout)
        if summary:
            mismatches += int(summary.group(1))
            errors += int(summary.group(2))
        elif proc.returncode != 0:
            errors += 1
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"fuzz_sweep: batch seed={seed} exited "
                  f"{proc.returncode}", file=sys.stderr)

    elapsed = time.monotonic() - started
    corpus_size = 0
    if os.path.isdir(opts.corpus):
        corpus_size = sum(1 for name in os.listdir(opts.corpus)
                          if name.endswith(".wsv"))
    rate = compositions / elapsed if elapsed > 0 else 0.0
    print(f"fuzz_sweep: {batches} batches, {compositions} compositions "
          f"in {elapsed:.0f}s ({rate:.1f} comps/s), "
          f"mismatches: {mismatches}, errors: {errors}, "
          f"corpus: {corpus_size} files")
    return 0 if mismatches == 0 and errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
