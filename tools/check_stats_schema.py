#!/usr/bin/env python3
"""Validates a `wsvc --stats-json` document against schema v5.

Usage: check_stats_schema.py [--require-counter NAME]... STATS_JSON [TRACE_JSON]

Checks the required top-level keys and their types (see
src/obs/stats_json.h) — schema v2 added the profiling sections: per-worker
time ledgers ("workers"), lock-contention counters ("locks"), and the
phase tree ("phases"); v3 added the "process" section (peak memory); v4
checks the valuation accounting: every checked valuation is prefiltered,
searched or served by the search memo, so engine.prefiltered +
engine.searches + engine.search_memo_hits = engine.valuations_checked,
and does one prefilter memo lookup, so engine.prefilter_memo_misses +
engine.prefilter_memo_hits = engine.valuations_checked, per document and
on the shard roll-up; v5 dropped the flat timer map, so
the phase tree is the one record of phase time (its paths must be closed
under parents: "a/b" needs an "a" entry). A document carries no top-level
section and a roll-up no key beyond the known ones, so a stale section
fails loudly instead of riding along. Verdicts that
report 'leaves' must also satisfy the leaf-cache accounting
footprint_hits + leaf_evals = leaf_cache_misses * leaves, and a wsvc
verdict's stats must equal the run's engine.* counters (instances,
databases_checked, and the valuation tallies unless the run retried a
database or stopped on the memory budget). The snapshot
graph's move memo does one lookup per expanded snapshot and peer, so a
document that reports its peer count ("peers") must satisfy
graph.move_lookups = graph.successor_calls * peers; evaluations never
exceed lookups, for moves, move rules, input choices and emitted choices
alike. Move rules are looked up only when their move missed, so
graph.rule_lookups is 0 when graph.move_evals is; the emitted-choice memo
is probed at most once per input lookup, so graph.choice_lookups <=
graph.input_lookups. Every successor candidate the graph encodes is
either found interned or interned as a new snapshot, so
graph.intern_hits + graph.snapshots = graph.encode, per document and on
the shard roll-up.
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


# Sections beyond the required ones: wsvc appends command/spec/peers/verdict,
# wsvc-merge verdict/shards, and a supervised shard_sweep.py merge
# supervisor.
OPTIONAL_SECTIONS = {"command", "spec", "peers", "verdict", "shards",
                     "supervisor"}
# Keys of the wsvc-merge cross-shard roll-up (verifier/merge.cc).
ROLLUP_KEYS = {"count", "counters", "phases", "histograms", "utilization",
               "per_shard", "straggler"}


def check_stats(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    expect(isinstance(doc, dict), "top level must be an object")

    required = {
        "schema_version": int,
        "generator": str,
        "counters": dict,
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
    expect(doc["schema_version"] == 5,
           f"unknown schema_version {doc['schema_version']}")
    unknown = set(doc) - set(required) - OPTIONAL_SECTIONS
    expect(not unknown, f"unknown top-level section(s) {sorted(unknown)}")

    for name, value in doc["counters"].items():
        expect(isinstance(value, int) and value >= 0,
               f"counter '{name}' must be a non-negative integer")
    check_fault_counters(doc["counters"], "counters")
    check_valuation_counters(doc["counters"], "counters")
    check_memo_counters(doc["counters"], doc.get("peers"))
    check_intern_counters(doc["counters"], "counters")
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
            check_verdict_tallies(verdict["stats"], doc["counters"],
                                  verdict.get("coverage", {}))
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


def check_phases(phases, where="phases"):
    """Validates a phase-tree section (schema v2): unique paths with
    non-negative totals, and closed under parents (a child phase only
    runs inside its parent, so "a/b" needs an "a" entry)."""
    expect(isinstance(phases, list), f"'{where}' must be a list")
    paths = set()
    for i, entry in enumerate(phases):
        expect(isinstance(entry, dict), f"{where}[{i}] must be an object")
        path = entry.get("path")
        expect(isinstance(path, str) and path,
               f"{where}[{i}] needs a non-empty string 'path'")
        expect(path not in paths, f"duplicate phase path '{path}'")
        paths.add(path)
        for field in ("total_ns", "self_ns", "count"):
            expect(isinstance(entry.get(field), int) and entry[field] >= 0,
                   f"phase '{path}' needs non-negative integer '{field}'")
        expect(entry["self_ns"] <= entry["total_ns"],
               f"phase '{path}': self_ns exceeds total_ns")
    for path in paths:
        parent = path.rpartition("/")[0]
        expect(not parent or parent in paths,
               f"'{where}': phase '{path}' has no '{parent}' entry")


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
    for section in ("counters", "histograms"):
        expect(isinstance(shards.get(section), dict),
               f"'shards.{section}' must be an object")
    unknown = set(shards) - ROLLUP_KEYS
    expect(not unknown, f"unknown 'shards' key(s) {sorted(unknown)}")
    check_phases(shards.get("phases"), "shards.phases")
    check_fault_counters(shards["counters"], "shards.counters")
    check_valuation_counters(shards["counters"], "shards.counters")
    check_intern_counters(shards["counters"], "shards.counters")
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
    """Validates the valuation accounting (schema v4): every checked
    valuation is either discharged by the prefilter, searched, or served
    by the engine's search memo, so prefiltered + searches +
    search_memo_hits = valuations_checked; and every checked valuation
    looks its truth-status key up in the prefilter memo exactly once, so
    prefilter_memo_misses + prefilter_memo_hits = valuations_checked
    (absent counters count as 0)."""
    checked = counters.get("engine.valuations_checked", 0)
    parts = {name: counters.get(f"engine.{name}", 0)
             for name in ("prefiltered", "searches", "search_memo_hits")}
    expect(sum(parts.values()) == checked,
           f"'{where}': prefiltered {parts['prefiltered']} + searches "
           f"{parts['searches']} + search_memo_hits "
           f"{parts['search_memo_hits']} != engine.valuations_checked "
           f"{checked}")
    misses, hits = (counters.get(f"engine.prefilter_memo_{name}", 0)
                    for name in ("misses", "hits"))
    expect(misses + hits == checked,
           f"'{where}': prefilter_memo_misses {misses} + "
           f"prefilter_memo_hits {hits} != engine.valuations_checked "
           f"{checked}")


# Verdict stats keys with the engine counter each must equal.
VERDICT_COUNTERS = {"instances": "engine.instances",
                    "databases_checked": "engine.databases_checked"}
# Valuation tallies the engine merges from its lanes once a database's
# fan-out returns.
VERDICT_TALLIES = {name: f"engine.{name}"
                   for name in ("prefiltered", "searches",
                                "prefilter_memo_misses",
                                "prefilter_memo_hits")}


def check_verdict_tallies(stats, counters, coverage):
    """Validates a wsvc verdict's stats against the same run's counters:
    instances and databases_checked always equal their engine.* counters,
    and the valuation tallies equal theirs unless the run retried a
    database or stopped on the memory budget. A check unwound by a throw
    keeps the counters it booked but loses its lanes' tallies, and a
    retried check books both attempts (absent counters count as 0)."""
    names = dict(VERDICT_COUNTERS)
    if (coverage.get("db_retries", 0) == 0
            and coverage.get("stop_reason") != "memory-budget"):
        names.update(VERDICT_TALLIES)
    for key, counter in names.items():
        if key not in stats:
            continue
        expect(stats[key] == counters.get(counter, 0),
               f"'verdict.stats.{key}' {stats[key]} != {counter} "
               f"{counters.get(counter, 0)}")


def check_intern_counters(counters, where):
    """Validates the snapshot intern accounting: every encoded candidate
    (initial snapshots included) is either a hit on an interned snapshot or
    a new one, so graph.intern_hits + graph.snapshots = graph.encode
    (absent counters count as 0)."""
    hits, snapshots, encoded = (counters.get(f"graph.{name}", 0)
                                for name in ("intern_hits", "snapshots",
                                             "encode"))
    expect(hits + snapshots == encoded,
           f"'{where}': graph.intern_hits {hits} + graph.snapshots "
           f"{snapshots} != graph.encode {encoded}")


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


def check_memo_counters(counters, peers):
    """Validates the graph expansion memo accounting: evaluations never
    exceed lookups (graph.move_*, graph.rule_*, graph.input_* and
    graph.choice_*), move rules are looked up only on move misses
    (graph.rule_lookups is 0 when graph.move_evals is), emitted choices
    only after an input lookup (graph.choice_lookups <=
    graph.input_lookups), and with the peer count known,
    graph.move_lookups = graph.successor_calls * peers (one move lookup
    per expanded snapshot and peer). Absent counters count as 0."""
    for memo in ("move", "rule", "input", "choice"):
        lookups = counters.get(f"graph.{memo}_lookups", 0)
        evals = counters.get(f"graph.{memo}_evals", 0)
        expect(evals <= lookups,
               f"'counters': graph.{memo}_evals {evals} > "
               f"graph.{memo}_lookups {lookups}")
    rule_lookups = counters.get("graph.rule_lookups", 0)
    expect(rule_lookups == 0 or counters.get("graph.move_evals", 0) > 0,
           f"'counters': graph.rule_lookups {rule_lookups} without any "
           f"graph.move_evals")
    choice_lookups = counters.get("graph.choice_lookups", 0)
    input_lookups = counters.get("graph.input_lookups", 0)
    expect(choice_lookups <= input_lookups,
           f"'counters': graph.choice_lookups {choice_lookups} > "
           f"graph.input_lookups {input_lookups}")
    if peers is None:
        return
    expect(isinstance(peers, int) and peers >= 1,
           "'peers' must be a positive integer")
    calls = counters.get("graph.successor_calls", 0)
    lookups = counters.get("graph.move_lookups", 0)
    expect(lookups == calls * peers,
           f"'counters': graph.move_lookups {lookups} != "
           f"graph.successor_calls {calls} * peers {peers}")


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
        description="Validate a wsvc --stats-json document (schema v5).")
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
