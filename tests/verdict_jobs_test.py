#!/usr/bin/env python3
"""Checks that a wsvc verification reports the same verdict at --jobs 1
and --jobs 4.

Usage: verdict_jobs_test.py --wsvc BIN --workdir DIR [--fault SPEC]
                            -- COMMAND ARGS...

Runs `wsvc COMMAND ARGS... --jobs J --stats-json DIR/jobsJ.json` for J in
1 and 4 and compares the two `verdict` objects. They must be equal apart
from `stats.jobs` (the job count itself). Prints the shared verdict's stop
reason and witness on success.
With --fault, both runs get WSV_FAULT=SPEC (deterministic fault injection).
"""

import argparse
import json
import os
import subprocess
import sys


def fail(msg):
    print(f"verdict_jobs_test: {msg}", file=sys.stderr)
    sys.exit(1)


def verdict(wsvc, args, jobs, workdir, fault):
    path = os.path.join(workdir, f"jobs{jobs}.json")
    cmd = [wsvc, *args, "--jobs", str(jobs), "--stats-json", path]
    env = dict(os.environ)
    env.pop("WSV_FAULT", None)
    if fault:
        env["WSV_FAULT"] = fault
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          env=env)
    if proc.returncode not in (0, 3):
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(path) as f:
        doc = json.load(f)["verdict"]
    doc["stats"].pop("jobs")
    return doc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--wsvc", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--fault", help="WSV_FAULT spec for both runs")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    os.makedirs(opts.workdir, exist_ok=True)

    serial = verdict(opts.wsvc, args, 1, opts.workdir, opts.fault)
    parallel = verdict(opts.wsvc, args, 4, opts.workdir, opts.fault)
    if serial != parallel:
        fail("verdicts differ:\n  jobs 1: " +
             json.dumps(serial, sort_keys=True) + "\n  jobs 4: " +
             json.dumps(parallel, sort_keys=True))
    print("verdicts match at jobs 1 and 4: "
          f"holds={serial['holds']} "
          f"stop_reason={serial['coverage']['stop_reason']} "
          f"witness=({serial.get('witness_db_index')}, "
          f"{serial.get('witness_valuation_index')})")


if __name__ == "__main__":
    main()
