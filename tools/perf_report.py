#!/usr/bin/env python3
"""Renders a wsv stats-JSON document as a human-readable performance report.

Usage:
  perf_report.py STATS.json                 render one report
  perf_report.py --diff OLD.json NEW.json   compare two documents
                 [--threshold PCT]          regression tolerance (default 10)

Works on any schema-v2 document the pipeline writes: a single `wsvc
--stats-json` run, a `wsvc-merge` roll-up (renders the cross-shard
"shards" section too), or a bench export converted by run_bench.py.

The report has four tables:
  phases   — the wall-clock tree (self/total per phase, call counts)
  workers  — per-worker time ledgers (exec/idle/lock-wait, utilization)
  locks    — contention per lock site (acquisitions, contended, wait)
  shards   — per-shard digest + straggler (wsvc-merge documents only)

--diff compares the phase totals and lock wait times of two documents and
exits 1 when NEW regresses over OLD by more than --threshold percent on
any phase whose share of the old total is at least 1% (tiny phases are
all noise). Use it to gate a profiling change on "did not slow down".
"""

import argparse
import json
import sys


def fail(msg, code=2):
    print(f"perf_report: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")


def fmt_ns(ns):
    """Adaptive duration: ns under 10us, ms under 10s, else seconds."""
    if ns < 10_000:
        return f"{ns}ns"
    if ns < 10_000_000_000:
        return f"{ns / 1e6:.2f}ms"
    return f"{ns / 1e9:.2f}s"


def table(rows, headers):
    """Plain left/right-aligned text table (numbers right, text left)."""
    rows = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for n, row in enumerate(rows):
        cells = []
        for i, cell in enumerate(row):
            # First column (names) left-aligned, numbers right-aligned.
            cells.append(cell.ljust(widths[i]) if i == 0
                         else cell.rjust(widths[i]))
        lines.append("  " + "  ".join(cells).rstrip())
        if n == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_phases(doc):
    phases = doc.get("phases") or []
    if not phases:
        return None
    # Share denominator: the main thread's "total" phase when present
    # (worker-thread roots like a bare "leaf_eval" overlap it and can push
    # per-phase shares past 100% — that is attribution, not partition).
    root_total = next((p["total_ns"] for p in phases if p["path"] == "total"),
                      0) or sum(p["total_ns"] for p in phases
                                if "/" not in p["path"])
    rows = []
    for p in phases:
        depth = p["path"].count("/")
        name = "  " * depth + p["path"].rsplit("/", 1)[-1]
        share = (100.0 * p["total_ns"] / root_total) if root_total else 0.0
        rows.append([name, fmt_ns(p["total_ns"]), fmt_ns(p["self_ns"]),
                     p["count"], f"{share:.1f}%"])
    return "phases:\n" + table(
        rows, ["phase", "total", "self", "count", "share"])


def render_workers(doc):
    workers = doc.get("workers") or {}
    if not workers:
        return None
    rows = []
    for name, w in workers.items():
        rows.append([name, fmt_ns(w["wall_ns"]), fmt_ns(w["exec_ns"]),
                     fmt_ns(w["idle_ns"]), fmt_ns(w["lock_wait_ns"]),
                     w["tasks"], f"{100.0 * w['utilization']:.1f}%"])
    return "workers:\n" + table(
        rows, ["worker", "wall", "exec", "idle", "lock-wait", "tasks",
               "util"])


def render_locks(doc):
    locks = doc.get("locks") or {}
    if not locks:
        return None
    rows = []
    for site, c in sorted(locks.items(),
                          key=lambda kv: -kv[1]["wait_ns"]):
        acq = c["acquisitions"]
        share = (100.0 * c["contended"] / acq) if acq else 0.0
        rows.append([site, acq, c["contended"], f"{share:.1f}%",
                     fmt_ns(c["wait_ns"])])
    return "locks:\n" + table(
        rows, ["site", "acquisitions", "contended", "rate", "wait"])


def render_shards(doc):
    shards = doc.get("shards")
    if not shards or not shards.get("per_shard"):
        return None
    rows = []
    straggler = (shards.get("straggler") or {}).get("source")
    for s in shards["per_shard"]:
        mark = " *" if s["source"] == straggler else ""
        rows.append([s["source"] + mark, fmt_ns(s["wall_ns"]),
                     fmt_ns(s["exec_ns"]), fmt_ns(s["lock_wait_ns"]),
                     s["workers"], f"{100.0 * s['utilization']:.1f}%"])
    util = shards.get("utilization", {})
    out = "shards (* = straggler):\n" + table(
        rows, ["shard", "wall", "exec", "lock-wait", "workers", "util"])
    out += (f"\n  utilization over {util.get('workers', 0)} worker(s): "
            f"mean {100.0 * util.get('mean', 0):.1f}%, "
            f"min {100.0 * util.get('min', 0):.1f}%, "
            f"max {100.0 * util.get('max', 0):.1f}%")
    return out


def render(path):
    doc = load(path)
    gen = doc.get("generator", "?")
    ver = doc.get("schema_version", "?")
    sections = [f"report: {path} (generator {gen}, schema v{ver})"]
    for part in (render_phases(doc), render_workers(doc),
                 render_locks(doc), render_shards(doc)):
        if part:
            sections.append(part)
    if len(sections) == 1:
        sections.append("(no phases/workers/locks sections — write the "
                        "document with wsvc --stats-json)")
    print("\n\n".join(sections))


def phase_totals(doc):
    return {p["path"]: p["total_ns"] for p in doc.get("phases") or []}


def diff(old_path, new_path, threshold):
    old, new = load(old_path), load(new_path)
    old_phases, new_phases = phase_totals(old), phase_totals(new)
    old_total = sum(ns for path, ns in old_phases.items() if "/" not in path)
    regressions, rows = [], []
    for path in sorted(set(old_phases) | set(new_phases)):
        o, n = old_phases.get(path, 0), new_phases.get(path, 0)
        delta = (100.0 * (n - o) / o) if o else (float("inf") if n else 0.0)
        rows.append([path, fmt_ns(o), fmt_ns(n),
                     f"{delta:+.1f}%" if delta != float("inf") else "new"])
        share = (100.0 * o / old_total) if old_total else 0.0
        if o and share >= 1.0 and delta > threshold:
            regressions.append(f"{path}: {fmt_ns(o)} -> {fmt_ns(n)} "
                               f"({delta:+.1f}% > +{threshold:.0f}%)")
    print(f"diff: {old_path} -> {new_path} (threshold +{threshold:.0f}%)\n")
    print(table(rows, ["phase", "old", "new", "delta"]))

    old_locks, new_locks = old.get("locks") or {}, new.get("locks") or {}
    lock_rows = []
    for site in sorted(set(old_locks) | set(new_locks)):
        o = old_locks.get(site, {}).get("wait_ns", 0)
        n = new_locks.get(site, {}).get("wait_ns", 0)
        lock_rows.append([site, fmt_ns(o), fmt_ns(n)])
    if lock_rows:
        print("\nlock wait:\n" + table(lock_rows, ["site", "old", "new"]))

    if regressions:
        print("\nREGRESSIONS:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print("\nno regressions past threshold")


def main():
    parser = argparse.ArgumentParser(add_help=True)
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two stats documents")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression tolerance in percent (with --diff)")
    parser.add_argument("stats", nargs="?", help="stats JSON to render")
    args = parser.parse_args()

    if args.diff:
        diff(args.diff[0], args.diff[1], args.threshold)
    elif args.stats:
        render(args.stats)
    else:
        parser.print_usage(sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
