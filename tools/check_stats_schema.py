#!/usr/bin/env python3
"""Validates a `wsvc --stats-json` document against schema v4.

Usage: check_stats_schema.py [--require-counter NAME]... STATS_JSON [TRACE_JSON]

Checks the required top-level keys and their types (see
src/obs/stats_json.h) — schema v2 added the profiling sections: per-worker
time ledgers ("workers"), lock-contention counters ("locks"), and the
phase tree ("phases"); v3 added the "process" section (peak memory); v4
added the symbolic valuation counters (engine.valuation_classes, bdd.*)
with the invariant valuation_classes <= valuations_checked. Verdicts that
report 'leaves' must also satisfy the leaf-cache accounting
footprint_hits + leaf_evals = leaf_cache_misses * leaves.
With a trace argument, also checks that the trace file is a well-formed
Chrome trace-event document. --require-counter (repeatable) additionally
fails unless the named counter is present, so perf-smoke ctest entries can
assert that instrumented paths actually ran. Exits non-zero with a message
on the first problem found, so it can run directly under ctest.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_stats_schema: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def check_stats(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    expect(isinstance(doc, dict), "top level must be an object")

    required = {
        "schema_version": int,
        "generator": str,
        "counters": dict,
        "timers_ns": dict,
        "histograms": dict,
        "workers": dict,
        "locks": dict,
        "phases": list,
        "process": dict,
    }
    for key, ty in required.items():
        expect(key in doc, f"missing required key '{key}'")
        expect(isinstance(doc[key], ty),
               f"'{key}' must be {ty.__name__}, got {type(doc[key]).__name__}")
    expect(doc["schema_version"] == 4,
           f"unknown schema_version {doc['schema_version']}")

    for name, value in doc["counters"].items():
        expect(isinstance(value, int) and value >= 0,
               f"counter '{name}' must be a non-negative integer")
    check_fault_counters(doc["counters"], "counters")
    check_valuation_counters(doc["counters"], "counters")
    for name, timer in doc["timers_ns"].items():
        expect(isinstance(timer, dict), f"timer '{name}' must be an object")
        for field in ("total_ns", "count"):
            expect(isinstance(timer.get(field), int),
                   f"timer '{name}' missing integer '{field}'")
    for name, hist in doc["histograms"].items():
        expect(isinstance(hist, dict), f"histogram '{name}' must be an object")
        for field in ("count", "sum", "min", "max"):
            expect(isinstance(hist.get(field), int),
                   f"histogram '{name}' missing integer '{field}'")
        expect(isinstance(hist.get("buckets"), list),
               f"histogram '{name}' missing 'buckets' list")

    check_workers(doc["workers"])
    check_locks(doc["locks"])
    check_phases(doc["phases"])
    check_process(doc["process"])
    if "shards" in doc:
        check_shards_rollup(doc["shards"])
    if "supervisor" in doc:
        check_supervisor(doc["supervisor"])

    # wsvc-produced documents also carry command/spec/verdict sections;
    # wsvc-merge documents carry a merge-shaped verdict instead.
    if "verdict" in doc:
        verdict = doc["verdict"]
        expect(isinstance(verdict, dict), "'verdict' must be an object")
        expect(isinstance(verdict.get("exit_code"), int),
               "'verdict.exit_code' must be an integer")
        if verdict.get("kind") == "merge":
            check_merge_verdict(verdict)
            return doc
        if "witness_valuation_index" in verdict:
            expect(isinstance(verdict["witness_valuation_index"], int),
                   "'verdict.witness_valuation_index' must be an integer")
        if "fingerprint" in verdict:
            expect(isinstance(verdict["fingerprint"], str),
                   "'verdict.fingerprint' must be a string")
        if "enumeration_count" in verdict:
            expect(isinstance(verdict["enumeration_count"], int),
                   "'verdict.enumeration_count' must be an integer")
        if "stats" in verdict:
            expect(isinstance(verdict["stats"], dict),
                   "'verdict.stats' must be an object")
            jobs = verdict["stats"].get("jobs")
            expect(isinstance(jobs, int) and jobs >= 1,
                   "'verdict.stats.jobs' must be a positive integer")
            check_leaf_counters(verdict["stats"], doc["counters"])
        if "phase_ns" in verdict:
            for phase in ("db_enum", "graph_expand", "leaf_eval", "ndfs"):
                expect(isinstance(verdict["phase_ns"].get(phase), int),
                       f"'verdict.phase_ns.{phase}' must be an integer")
        if "coverage" in verdict:
            check_coverage(verdict["coverage"])
    return doc


def check_workers(workers):
    """Validates the per-worker time-ledger section (schema v2)."""
    fields = ("wall_ns", "exec_ns", "idle_ns", "lock_wait_ns", "drain_ns",
              "tasks")
    for name, ledger in workers.items():
        expect(isinstance(ledger, dict), f"worker '{name}' must be an object")
        for field in fields:
            expect(isinstance(ledger.get(field), int) and ledger[field] >= 0,
                   f"worker '{name}' needs non-negative integer '{field}'")
        util = ledger.get("utilization")
        expect(isinstance(util, (int, float)) and not isinstance(util, bool)
               and util >= 0,
               f"worker '{name}' needs non-negative number 'utilization'")
        # Buckets attribute rather than partition (a pool worker's drain
        # nests inside exec), but none may exceed the wall clock they
        # happened within — modulo the snapshot race between a bucket add
        # and the wall read, which stays far under a millisecond.
        slack = 1_000_000
        for field in ("exec_ns", "idle_ns", "lock_wait_ns", "drain_ns"):
            expect(ledger[field] <= ledger["wall_ns"] + slack,
                   f"worker '{name}': {field} exceeds wall_ns")


def check_locks(locks):
    """Validates the lock-contention section (schema v2)."""
    for site, counters in locks.items():
        expect(isinstance(counters, dict),
               f"lock site '{site}' must be an object")
        for field in ("acquisitions", "contended", "wait_ns"):
            expect(isinstance(counters.get(field), int)
                   and counters[field] >= 0,
                   f"lock site '{site}' needs non-negative integer "
                   f"'{field}'")
        expect(counters["contended"] <= counters["acquisitions"],
               f"lock site '{site}': contended exceeds acquisitions")
        expect(counters["contended"] > 0 or counters["wait_ns"] == 0,
               f"lock site '{site}': wait_ns without contended acquisitions")


def check_phases(phases):
    """Validates the phase-tree section (schema v2)."""
    paths = set()
    for i, entry in enumerate(phases):
        expect(isinstance(entry, dict), f"phases[{i}] must be an object")
        path = entry.get("path")
        expect(isinstance(path, str) and path,
               f"phases[{i}] needs a non-empty string 'path'")
        expect(path not in paths, f"duplicate phase path '{path}'")
        paths.add(path)
        for field in ("total_ns", "self_ns", "count"):
            expect(isinstance(entry.get(field), int) and entry[field] >= 0,
                   f"phase '{path}' needs non-negative integer '{field}'")
        expect(entry["self_ns"] <= entry["total_ns"],
               f"phase '{path}': self_ns exceeds total_ns")


def check_process(process):
    """Validates the process resource section (schema v3)."""
    rss = process.get("max_rss_kb")
    expect(isinstance(rss, int) and rss >= 0,
           "'process.max_rss_kb' must be a non-negative integer")


def check_shards_rollup(shards):
    """Validates the cross-shard roll-up a wsvc-merge document carries."""
    expect(isinstance(shards, dict), "'shards' must be an object")
    expect(isinstance(shards.get("count"), int) and shards["count"] >= 0,
           "'shards.count' must be a non-negative integer")
    for section in ("counters", "timers_ns", "histograms"):
        expect(isinstance(shards.get(section), dict),
               f"'shards.{section}' must be an object")
    check_fault_counters(shards["counters"], "shards.counters")
    check_valuation_counters(shards["counters"], "shards.counters")
    util = shards.get("utilization")
    expect(isinstance(util, dict), "'shards.utilization' must be an object")
    for field in ("mean", "min", "max"):
        value = util.get(field)
        expect(isinstance(value, (int, float))
               and not isinstance(value, bool) and value >= 0,
               f"'shards.utilization.{field}' must be a non-negative number")
    per_shard = shards.get("per_shard")
    expect(isinstance(per_shard, list), "'shards.per_shard' must be a list")
    for i, row in enumerate(per_shard):
        expect(isinstance(row, dict), f"per_shard[{i}] must be an object")
        expect(isinstance(row.get("source"), str),
               f"per_shard[{i}] needs string 'source'")
        for field in ("wall_ns", "exec_ns", "lock_wait_ns", "workers"):
            expect(isinstance(row.get(field), int) and row[field] >= 0,
                   f"per_shard[{i}] needs non-negative integer '{field}'")
    if per_shard:
        straggler = shards.get("straggler")
        expect(isinstance(straggler, dict), "'shards.straggler' missing")
        expect(straggler.get("source") in
               {row["source"] for row in per_shard},
               "'shards.straggler.source' must name a per_shard entry")
        expect(straggler.get("wall_ns") ==
               max(row["wall_ns"] for row in per_shard),
               "'shards.straggler.wall_ns' must be the per_shard maximum")


def check_fault_counters(counters, where):
    """Validates the fault-injection counters: 'fault.injected' must equal
    the sum of the per-site 'fault.injected.<site>' breakdown (both absent
    is fine — a run with no armed faults emits neither)."""
    per_site = sum(v for k, v in counters.items()
                   if k.startswith("fault.injected."))
    total = counters.get("fault.injected")
    if total is None:
        expect(per_site == 0,
               f"'{where}' has fault.injected.* sites but no "
               f"'fault.injected' total")
        return
    expect(total == per_site,
           f"'{where}.fault.injected' is {total} but the per-site "
           f"breakdown sums to {per_site}")


def check_valuation_counters(counters, where):
    """Validates the symbolic-valuation counters (schema v4): a class
    stands for >= 1 valuation indices, so 'engine.valuation_classes' can
    never exceed 'engine.valuations_checked' (both absent, or classes
    absent on a concrete-mode run, is fine)."""
    classes = counters.get("engine.valuation_classes")
    if classes is None:
        return
    checked = counters.get("engine.valuations_checked")
    expect(checked is not None,
           f"'{where}' has engine.valuation_classes but no "
           f"'engine.valuations_checked'")
    expect(classes <= checked,
           f"'{where}.engine.valuation_classes' is {classes}, which exceeds "
           f"engine.valuations_checked = {checked}")


def check_leaf_counters(stats, counters):
    """Validates the leaf-cache footprint memo accounting: every snapshot
    miss fills one cell per leaf, and each cell is either a fresh
    evaluation or a footprint hit, so footprint_hits + leaf_evals =
    misses * leaves — in 'verdict.stats' and, when the run emitted them, in
    the 'leafcache.*' counters (documents without 'leaves' predate the
    memo and are not checked)."""
    leaves = stats.get("leaves")
    if leaves is None:
        return
    for field in ("leaves", "leaf_evals", "footprint_hits",
                  "leaf_cache_misses"):
        expect(isinstance(stats.get(field), int) and stats[field] >= 0,
               f"'verdict.stats.{field}' must be a non-negative integer")
    cells = stats["leaf_cache_misses"] * leaves
    expect(stats["footprint_hits"] + stats["leaf_evals"] == cells,
           f"'verdict.stats': footprint_hits {stats['footprint_hits']} + "
           f"leaf_evals {stats['leaf_evals']} != leaf_cache_misses "
           f"{stats['leaf_cache_misses']} * leaves {leaves}")
    names = ("leafcache.footprint_hits", "leafcache.leaf_evals",
             "leafcache.misses")
    if not any(name in counters for name in names):
        return
    hits, evals, misses = (counters.get(name, 0) for name in names)
    expect(hits + evals == misses * leaves,
           f"'counters': leafcache.footprint_hits {hits} + "
           f"leafcache.leaf_evals {evals} != leafcache.misses {misses} * "
           f"leaves {leaves}")


def check_supervisor(sup):
    """Validates the supervisor roll-up a supervised shard_sweep merge
    document carries."""
    expect(isinstance(sup, dict), "'supervisor' must be an object")
    fields = ("leases", "relaunches", "watchdog_kills", "chaos_kills",
              "corruptions", "bak_recoveries", "splits", "abandoned",
              "retry_budget")
    for field in fields:
        expect(isinstance(sup.get(field), int) and sup[field] >= 0,
               f"'supervisor.{field}' must be a non-negative integer")
    expect(sup["leases"] >= 1, "'supervisor.leases' must be >= 1")
    expect(sup["abandoned"] <= sup["leases"],
           "'supervisor.abandoned' exceeds the lease count")
    expect(sup["corruptions"] == 0 or sup["relaunches"] + sup["abandoned"] > 0,
           "'supervisor.corruptions' without any relaunch or abandonment")


def check_intervals(value, what):
    """Validates a covered/gaps value: a list of [lo, hi] index pairs."""
    expect(isinstance(value, list), f"'{what}' must be a list")
    for pair in value:
        expect(isinstance(pair, list) and len(pair) == 2
               and all(isinstance(x, int) and x >= 0 for x in pair)
               and pair[0] <= pair[1],
               f"'{what}' entries must be [lo, hi] index pairs")


def check_coverage(cov):
    """Validates the verdict.coverage block written for sweep verdicts."""
    expect(isinstance(cov, dict), "'verdict.coverage' must be an object")
    reasons = ("complete", "budget", "deadline", "canceled", "db-failures",
               "range-end", "memory-budget")
    expect(cov.get("stop_reason") in reasons,
           f"'coverage.stop_reason' must be one of {reasons}, "
           f"got {cov.get('stop_reason')!r}")
    for field in ("stop_code", "stop_message"):
        expect(isinstance(cov.get(field), str),
               f"'coverage.{field}' must be a string")
    for field in ("completed_prefix", "databases_completed", "db_retries"):
        expect(isinstance(cov.get(field), int) and cov[field] >= 0,
               f"'coverage.{field}' must be a non-negative integer")
    if "covered" in cov:
        check_intervals(cov["covered"], "coverage.covered")
    if "unit" in cov:
        expect(cov["unit"] in ("database", "valuation"),
               "'coverage.unit' must be 'database' or 'valuation'")
    for field in ("range_lo", "range_hi"):
        if field in cov:
            expect(isinstance(cov[field], int) and cov[field] >= 0,
                   f"'coverage.{field}' must be a non-negative integer")
    failed = cov.get("failed_db_indices")
    expect(isinstance(failed, list), "'coverage.failed_db_indices' must be a list")
    for index in failed:
        # Indices ahead of the prefix are legal: a parallel sweep can record
        # an out-of-order failure before the prefix catches up to it.
        expect(isinstance(index, int) and index >= 0,
               "'coverage.failed_db_indices' entries must be non-negative "
               "integers")
    if cov["stop_reason"] == "complete":
        expect(cov["stop_code"] == "OK",
               "'coverage.stop_code' must be OK when the sweep completed")


def check_merge_verdict(verdict):
    """Validates a wsvc-merge verdict (kind == 'merge')."""
    expect(verdict.get("verdict") in ("holds", "violated", "incomplete"),
           "'verdict.verdict' must be holds/violated/incomplete, "
           f"got {verdict.get('verdict')!r}")
    for field in ("holds", "complete", "counterexample"):
        expect(isinstance(verdict.get(field), bool),
               f"'verdict.{field}' must be a boolean")
    if verdict["counterexample"]:
        for field in ("witness_db_index", "witness_valuation_index",
                      "witness_shard"):
            expect(isinstance(verdict.get(field), int),
                   f"'verdict.{field}' must be an integer")
    cov = verdict.get("coverage")
    expect(isinstance(cov, dict), "'verdict.coverage' must be an object")
    expect(cov.get("unit") in ("database", "valuation"),
           "'coverage.unit' must be 'database' or 'valuation'")
    check_intervals(cov.get("covered"), "coverage.covered")
    check_intervals(cov.get("gaps"), "coverage.gaps")
    expect(isinstance(cov.get("overlap"), int) and cov["overlap"] >= 0,
           "'coverage.overlap' must be a non-negative integer")
    expect(verdict.get("verdict") != "holds" or not cov["gaps"],
           "a merge must not report 'holds' over a coverage gap")
    expect(isinstance(verdict.get("warnings"), list),
           "'verdict.warnings' must be a list")


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    expect(isinstance(doc, dict), "trace top level must be an object")
    events = doc.get("traceEvents")
    expect(isinstance(events, list), "trace must contain 'traceEvents' list")
    for i, event in enumerate(events):
        expect(isinstance(event, dict), f"traceEvents[{i}] must be an object")
        for field in ("name", "ph", "ts", "pid", "tid"):
            expect(field in event, f"traceEvents[{i}] missing '{field}'")
        if event["ph"] == "X":
            expect("dur" in event,
                   f"traceEvents[{i}] is a complete span without 'dur'")
    return len(events)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="check_stats_schema.py",
        description="Validate a wsvc --stats-json document (schema v3).")
    parser.add_argument("stats", help="stats JSON file")
    parser.add_argument("trace", nargs="?", default=None,
                        help="optional Chrome trace-event JSON file")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="fail unless this counter is present "
                             "(repeatable)")
    args = parser.parse_args(argv[1:])
    doc = check_stats(args.stats)
    for name in args.require_counter:
        expect(name in doc["counters"],
               f"required counter '{name}' missing from stats document")
    summary = (f"stats OK: {len(doc['counters'])} counters, "
               f"{len(doc['timers_ns'])} timers, "
               f"{len(doc['histograms'])} histograms, "
               f"{len(doc['workers'])} workers, "
               f"{len(doc['locks'])} lock sites, "
               f"{len(doc['phases'])} phases, "
               f"max_rss={doc['process']['max_rss_kb']}kb")
    if args.trace is not None:
        summary += f"; trace OK: {check_trace(args.trace)} events"
    print(summary)


if __name__ == "__main__":
    main(sys.argv)
