#!/usr/bin/env python3
"""Compares two run_bench.py documents and fails on regression.

Usage:
  bench_diff.py OLD.json NEW.json [--threshold PCT] [--metric real|cpu]

Benchmarks are matched by (binary, name); real_time_ms (default) or
cpu_time_ms is compared, as the median of a benchmark's rows when the
document repeats it. NEW regressing past --threshold percent (default
25 — single-run google-benchmark numbers on a busy host are noisy; tighten
it when the baselines are repetition-aggregated) on any matched benchmark
exits 1 and lists the offenders. Benchmarks present on only one side are
reported but never fail the diff — a renamed series should not masquerade
as a regression.

Peak memory is compared alongside time: when both sides carry the
process.max_rss_kb counter (run_bench.py documents recorded since the
bench harness started exporting it), the RSS delta is printed per
benchmark, and --rss-threshold PCT (off by default) turns RSS growth past
PCT percent into a failure too.

Self-comparing a document (`bench_diff.py BENCH_scaling.json
BENCH_scaling.json`) is the smoke test the profiling ctest label runs: it
exercises the full match/compare path and must always exit 0.
"""

import argparse
import json
import statistics
import sys


def fail(msg, code=2):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")
    if doc.get("schema_version") != 1:
        fail(f"{path}: unsupported schema_version "
             f"{doc.get('schema_version')!r} (want 1)")
    return doc


def flatten(doc, metric_key):
    """{(binary, benchmark name): (time_ms, max_rss_kb or None)}.

    A document recorded with repetitions holds one row per repetition under
    the same name; the time is their median and the RSS the largest the
    rows report (the process peak, which only grows)."""
    rows = {}
    for run in doc.get("runs", []):
        binary = run.get("binary", "?")
        for bench in run.get("benchmarks", []):
            rss = bench.get("counters", {}).get("process.max_rss_kb")
            rows.setdefault((binary, bench["name"]), []).append(
                (bench[metric_key], rss))
    out = {}
    for key, reps in rows.items():
        rss = [r for _, r in reps if r is not None]
        out[key] = (statistics.median(t for t, _ in reps),
                    max(rss) if rss else None)
    return out


def main():
    parser = argparse.ArgumentParser(add_help=True)
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="regression tolerance in percent (default 25)")
    parser.add_argument("--metric", choices=("real", "cpu"), default="real")
    parser.add_argument("--rss-threshold", type=float, default=None,
                        help="also fail when peak RSS grows past this "
                             "percent (default: report only)")
    args = parser.parse_args()

    metric_key = f"{args.metric}_time_ms"
    old = flatten(load(args.old), metric_key)
    new = flatten(load(args.new), metric_key)

    regressions = []
    width = max((len(f"{b}:{n}") for b, n in old | new), default=4)
    print(f"bench_diff: {args.old} -> {args.new} "
          f"({metric_key}, threshold +{args.threshold:.0f}%)")
    for key in sorted(old | new):
        label = f"{key[0]}:{key[1]}"
        if key not in old:
            print(f"  {label:<{width}}  (new benchmark, skipped)")
            continue
        if key not in new:
            print(f"  {label:<{width}}  (dropped benchmark, skipped)")
            continue
        (o, o_rss), (n, n_rss) = old[key], new[key]
        delta = (100.0 * (n - o) / o) if o else 0.0
        flag = ""
        if delta > args.threshold:
            flag = "  REGRESSION"
            regressions.append(
                f"{label}: {o:.2f}ms -> {n:.2f}ms ({delta:+.1f}%)")
        rss_note = ""
        if o_rss and n_rss:
            rss_delta = 100.0 * (n_rss - o_rss) / o_rss
            rss_note = (f"  rss {o_rss/1024.0:6.1f}mb -> "
                        f"{n_rss/1024.0:6.1f}mb ({rss_delta:+6.1f}%)")
            if args.rss_threshold is not None \
                    and rss_delta > args.rss_threshold:
                flag = "  REGRESSION"
                regressions.append(
                    f"{label}: rss {o_rss:.0f}kb -> {n_rss:.0f}kb "
                    f"({rss_delta:+.1f}%)")
        print(f"  {label:<{width}}  {o:10.2f}ms -> {n:10.2f}ms "
              f"({delta:+6.1f}%){rss_note}{flag}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) past "
              f"+{args.threshold:.0f}%:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print("no regressions past threshold")


if __name__ == "__main__":
    main()
