#!/usr/bin/env python3
"""End-to-end test of the wsvc-fuzz driver.

Usage: fuzz_cli_test.py --fuzz-bin PATH --workdir DIR

Covers the full mismatch pipeline the unit tests cannot: a clean run
exits 0 and writes nothing; `generate` is byte-deterministic across
invocations and across --jobs settings; an intentionally broken leg
(--break-leg) makes the run exit 1 AND leaves a minimized self-contained
repro in the corpus directory; replaying that repro (break-leg is never
replayed) passes; replaying garbage fails.
"""

import argparse
import os
import shutil
import subprocess
import sys


def fail(msg):
    print(f"fuzz_cli_test: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def run(bin_path, args, **kwargs):
    return subprocess.run([bin_path, *args], capture_output=True, text=True,
                          **kwargs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fuzz-bin", required=True)
    parser.add_argument("--workdir", required=True)
    opts = parser.parse_args()

    os.makedirs(opts.workdir, exist_ok=True)

    # --- generate is deterministic across invocations and --jobs ---------
    # The `//! legs` header line records the requested jobs/shards, so the
    # comparison strips it: everything else (spec, property, run semantics)
    # must be byte-identical.
    for regime in ("core", "recency", "external", "cfsm"):
        outs = set()
        for jobs in ("1", "2", "4"):
            p = run(opts.fuzz_bin, ["generate", "--seed", "5",
                                    "--regime", regime, "--jobs", jobs])
            expect(p.returncode == 0,
                   f"generate {regime} failed: {p.stderr}")
            expect("//! seed: 5" in p.stdout,
                   f"generate {regime}: missing seed directive")
            outs.add("\n".join(line for line in p.stdout.splitlines()
                               if not line.startswith("//! legs:")))
        expect(len(outs) == 1,
               f"generate {regime}: output varies across invocations/--jobs")

    # --- clean run: exit 0, empty corpus ----------------------------------
    clean_corpus = os.path.join(opts.workdir, "corpus_clean")
    shutil.rmtree(clean_corpus, ignore_errors=True)
    p = run(opts.fuzz_bin, ["run", "--seed", "2", "--count", "12",
                            "--corpus", clean_corpus])
    expect(p.returncode == 0, f"clean run exited {p.returncode}: {p.stderr}")
    expect("mismatches: 0" in p.stdout, f"unexpected summary: {p.stdout}")
    expect(not os.path.isdir(clean_corpus) or not os.listdir(clean_corpus),
           "clean run wrote corpus files")

    # --- broken leg: exit 1, minimized repro written -----------------------
    broken_corpus = os.path.join(opts.workdir, "corpus_broken")
    shutil.rmtree(broken_corpus, ignore_errors=True)
    p = run(opts.fuzz_bin, ["run", "--seed", "2", "--count", "2",
                            "--regimes", "core,perfect",
                            "--break-leg", "engine-jobs2",
                            "--corpus", broken_corpus])
    expect(p.returncode == 1,
           f"broken run exited {p.returncode} (want 1): {p.stderr}")
    expect("MISMATCH" in p.stderr, f"no MISMATCH report: {p.stderr}")
    expect("minimized repro" in p.stderr, f"no shrink report: {p.stderr}")
    repros = sorted(os.listdir(broken_corpus)) if os.path.isdir(
        broken_corpus) else []
    expect(len(repros) >= 1, "broken run left no repro in the corpus dir")
    repro_path = os.path.join(broken_corpus, repros[0])
    with open(repro_path) as f:
        text = f.read()
    expect(text.startswith("//!"), "repro missing directive header")
    expect("//! detail:" in text, "repro missing mismatch detail")
    expect("//! break-leg: engine-jobs2" in text,
           "repro does not record the broken leg")
    expect("peer " in text, "repro missing spec text")

    # --- the repro replays clean (break-leg is not replayed) ---------------
    p = run(opts.fuzz_bin, ["replay", *[os.path.join(broken_corpus, r)
                                        for r in repros]])
    expect(p.returncode == 0, f"replay exited {p.returncode}: {p.stderr}")
    expect("PASS" in p.stdout, f"replay printed no PASS line: {p.stdout}")

    # --- a garbage corpus file fails loudly --------------------------------
    garbage = os.path.join(opts.workdir, "garbage.wsv")
    with open(garbage, "w") as f:
        f.write("this is not a corpus file\n")
    p = run(opts.fuzz_bin, ["replay", garbage])
    expect(p.returncode == 1, f"garbage replay exited {p.returncode}")

    print("fuzz_cli_test: all checks passed")


if __name__ == "__main__":
    main()
