#!/usr/bin/env python3
"""Self-test for tools/check_stats_schema.py.

Usage: check_stats_schema_test.py CHECKER_PATH

Feeds the checker a series of crafted stats documents — valid sweep and
merge verdicts, plus documents with missing fields, wrong types, and
contract violations — and asserts on the checker's exit code for each.
Exits non-zero with a description of the first case that disagrees.
"""

import copy
import json
import subprocess
import sys
import tempfile


def base_doc():
    """A minimal valid stats document with a sweep verdict."""
    return {
        "schema_version": 4,
        "generator": "wsvc",
        "counters": {"sweep.databases": 4, "sweep.range_lo": 0},
        "timers_ns": {"verify": {"total_ns": 1000, "count": 1}},
        "histograms": {
            "db.size": {"count": 4, "sum": 10, "min": 1, "max": 4,
                        "buckets": [1, 2, 1]},
        },
        "workers": {
            "main": {"wall_ns": 1000, "exec_ns": 600, "idle_ns": 0,
                     "lock_wait_ns": 10, "drain_ns": 600, "tasks": 0,
                     "utilization": 0.6},
            "worker.0": {"wall_ns": 990, "exec_ns": 700, "idle_ns": 280,
                         "lock_wait_ns": 0, "drain_ns": 650, "tasks": 7,
                         "utilization": 0.707},
        },
        "locks": {
            "prefilter_memo": {"acquisitions": 32, "contended": 2,
                               "wait_ns": 450},
            "trace": {"acquisitions": 0, "contended": 0, "wait_ns": 0},
        },
        "phases": [
            {"path": "total", "total_ns": 1000, "self_ns": 20, "count": 1},
            {"path": "total/check_db", "total_ns": 980, "self_ns": 980,
             "count": 1},
        ],
        "process": {"max_rss_kb": 51200},
        "verdict": {
            "exit_code": 0,
            "kind": "verify",
            "fingerprint": "deadbeef01234567",
            "enumeration_count": 4,
            "witness_valuation_index": 0,
            "stats": {"jobs": 2},
            "coverage": {
                "stop_reason": "complete",
                "stop_code": "OK",
                "stop_message": "sweep ran to completion",
                "completed_prefix": 4,
                "databases_completed": 4,
                "db_retries": 0,
                "covered": [[0, 4]],
                "unit": "database",
                "range_lo": 0,
                "range_hi": 4,
                "failed_db_indices": [],
            },
        },
    }


def merge_doc():
    """A minimal valid stats document with a wsvc-merge verdict."""
    return {
        "schema_version": 4,
        "generator": "wsvc-merge",
        "counters": {"merge.shards": 3, "merge.gaps": 0},
        "timers_ns": {},
        "histograms": {},
        "workers": {},
        "locks": {},
        "phases": [
            {"path": "merge", "total_ns": 4000, "self_ns": 4000, "count": 1},
        ],
        "process": {"max_rss_kb": 20480},
        "shards": {
            "count": 2,
            "counters": {"engine.databases_checked": 4},
            "timers_ns": {},
            "histograms": {},
            "utilization": {"workers": 4, "mean": 0.5, "min": 0.2,
                            "max": 0.9},
            "per_shard": [
                {"source": "shard0.json", "wall_ns": 900, "exec_ns": 700,
                 "lock_wait_ns": 5, "workers": 2, "utilization": 0.77},
                {"source": "shard1.json", "wall_ns": 700, "exec_ns": 300,
                 "lock_wait_ns": 0, "workers": 2, "utilization": 0.43},
            ],
            "straggler": {"source": "shard0.json", "wall_ns": 900},
        },
        "verdict": {
            "exit_code": 0,
            "kind": "merge",
            "verdict": "holds",
            "holds": True,
            "complete": True,
            "counterexample": False,
            "fingerprint": "deadbeef01234567",
            "coverage": {
                "unit": "database",
                "covered": [[0, 4]],
                "completed_prefix": 4,
                "gaps": [],
                "overlap": 0,
                "failed_db_indices": [],
            },
            "warnings": [],
        },
    }


def mutate(doc, path, value):
    """Returns a deep copy of doc with the dotted path set (or deleted)."""
    out = copy.deepcopy(doc)
    node = out
    parts = path.split(".")
    for part in parts[:-1]:
        node = node[int(part)] if part.isdigit() else node[part]
    last = int(parts[-1]) if parts[-1].isdigit() else parts[-1]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return out


DELETE = object()


def run_checker(checker, doc, extra_args=()):
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump(doc, f)
        path = f.name
    proc = subprocess.run([sys.executable, checker, *extra_args, path],
                         capture_output=True, text=True)
    return proc


def main(argv):
    if len(argv) != 2:
        print("usage: check_stats_schema_test.py CHECKER_PATH",
              file=sys.stderr)
        return 2
    checker = argv[1]

    range_end = mutate(base_doc(), "verdict.coverage.stop_reason",
                       "range-end")
    range_end = mutate(range_end, "verdict.coverage.stop_code", "RangeEnd")
    range_end = mutate(range_end, "verdict.coverage.covered", [[1, 3]])
    range_end = mutate(range_end, "verdict.exit_code", 0)

    gap_holds = mutate(merge_doc(), "verdict.coverage.gaps", [[2, 3]])

    memory_budget = mutate(base_doc(), "verdict.coverage.stop_reason",
                           "memory-budget")
    memory_budget = mutate(memory_budget, "verdict.coverage.stop_code",
                           "MemoryBudget")

    faulted = mutate(base_doc(), "counters",
                     {"sweep.databases": 4, "fault.injected": 3,
                      "fault.injected.checkpoint.write.io": 2,
                      "fault.injected.arena.alloc": 1})
    fault_sum_wrong = mutate(base_doc(), "counters",
                             {"fault.injected": 5,
                              "fault.injected.checkpoint.write.io": 2,
                              "fault.injected.arena.alloc": 1})
    fault_no_total = mutate(base_doc(), "counters",
                            {"fault.injected.merge.io": 1})

    symbolic = mutate(base_doc(), "counters",
                      {"sweep.databases": 4,
                       "engine.valuations_checked": 16,
                       "engine.valuation_classes": 3,
                       "bdd.nodes": 40, "bdd.cache_hits": 12})
    classes_over_checked = mutate(base_doc(), "counters",
                                  {"engine.valuations_checked": 4,
                                   "engine.valuation_classes": 9})
    classes_no_checked = mutate(base_doc(), "counters",
                                {"engine.valuation_classes": 3})
    rollup_symbolic = mutate(merge_doc(), "shards.counters",
                             {"engine.valuations_checked": 32,
                              "engine.valuation_classes": 5})
    rollup_classes_bad = mutate(merge_doc(), "shards.counters",
                                {"engine.valuations_checked": 5,
                                 "engine.valuation_classes": 32})

    supervised = mutate(merge_doc(), "supervisor",
                        {"leases": 4, "relaunches": 2, "watchdog_kills": 1,
                         "chaos_kills": 1, "corruptions": 1,
                         "bak_recoveries": 1, "splits": 1, "abandoned": 0,
                         "retry_budget": 3})

    # Leaf-cache footprint memo: 10 snapshot misses x 3 leaves = 30 cells,
    # 4 fresh evaluations + 26 footprint hits.
    leaf_memo = mutate(base_doc(), "verdict.stats",
                       {"jobs": 2, "leaf_cache_misses": 10, "leaves": 3,
                        "leaf_evals": 4, "footprint_hits": 26})
    leaf_counters = {"sweep.databases": 4, "leafcache.misses": 10,
                     "leafcache.leaf_evals": 4,
                     "leafcache.footprint_hits": 26}
    leaf_memo = mutate(leaf_memo, "counters", leaf_counters)
    leaf_stats_off = mutate(leaf_memo, "verdict.stats.footprint_hits", 25)
    leaf_counters_off = mutate(leaf_memo, "counters",
                               dict(leaf_counters,
                                    **{"leafcache.leaf_evals": 30}))
    leaf_missing_evals = mutate(leaf_memo, "verdict.stats.leaf_evals",
                                DELETE)

    # (name, document, expect_ok)
    cases = [
        ("valid sweep verdict", base_doc(), True),
        ("valid range-end shard verdict", range_end, True),
        ("valid merge verdict", merge_doc(), True),
        ("missing counters", mutate(base_doc(), "counters", DELETE), False),
        ("missing schema_version",
         mutate(base_doc(), "schema_version", DELETE), False),
        ("wrong schema_version",
         mutate(base_doc(), "schema_version", 99), False),
        ("counter wrong type",
         mutate(base_doc(), "counters", {"sweep.databases": "four"}), False),
        ("timer missing count",
         mutate(base_doc(), "timers_ns", {"verify": {"total_ns": 1}}), False),
        ("exit_code wrong type",
         mutate(base_doc(), "verdict.exit_code", "zero"), False),
        ("fingerprint wrong type",
         mutate(base_doc(), "verdict.fingerprint", 123), False),
        ("enumeration_count wrong type",
         mutate(base_doc(), "verdict.enumeration_count", "4"), False),
        ("unknown stop_reason",
         mutate(base_doc(), "verdict.coverage.stop_reason", "tired"), False),
        ("covered not pairs",
         mutate(base_doc(), "verdict.coverage.covered", [[3, 1]]), False),
        ("covered wrong element type",
         mutate(base_doc(), "verdict.coverage.covered", [["0", "4"]]), False),
        ("bad coverage unit",
         mutate(base_doc(), "verdict.coverage.unit", "galaxy"), False),
        ("negative range_lo",
         mutate(base_doc(), "verdict.coverage.range_lo", -1), False),
        ("complete without OK stop_code",
         mutate(base_doc(), "verdict.coverage.stop_code", "Budget"), False),
        ("merge bad verdict word",
         mutate(merge_doc(), "verdict.verdict", "maybe"), False),
        ("merge holds over a gap", gap_holds, False),
        ("merge missing warnings",
         mutate(merge_doc(), "verdict.warnings", DELETE), False),
        ("merge overlap wrong type",
         mutate(merge_doc(), "verdict.coverage.overlap", "none"), False),
        ("merge gaps wrong shape",
         mutate(merge_doc(), "verdict.coverage.gaps", [[1]]), False),
        ("merge counterexample without witness",
         mutate(mutate(merge_doc(), "verdict.counterexample", True),
                "verdict.verdict", "violated"), False),
        # Schema-v2 profiling sections.
        ("missing workers section",
         mutate(base_doc(), "workers", DELETE), False),
        ("missing locks section",
         mutate(base_doc(), "locks", DELETE), False),
        ("missing phases section",
         mutate(base_doc(), "phases", DELETE), False),
        ("old schema_version 1",
         mutate(base_doc(), "schema_version", 1), False),
        ("old schema_version 2",
         mutate(base_doc(), "schema_version", 2), False),
        # Schema-v3 process section.
        ("missing process section",
         mutate(base_doc(), "process", DELETE), False),
        ("process max_rss wrong type",
         mutate(base_doc(), "process.max_rss_kb", "lots"), False),
        ("process max_rss negative",
         mutate(base_doc(), "process.max_rss_kb", -1), False),
        ("worker missing lock_wait_ns",
         mutate(base_doc(), "workers.main.lock_wait_ns", DELETE), False),
        ("worker negative exec",
         mutate(base_doc(), "workers.main.exec_ns", -5), False),
        ("worker exec past wall",
         mutate(base_doc(), "workers.main.exec_ns", 1_000_000_000), False),
        ("worker utilization wrong type",
         mutate(base_doc(), "workers.main.utilization", "busy"), False),
        ("lock contended over acquisitions",
         mutate(base_doc(), "locks.trace.contended", 3), False),
        ("lock wait without contention",
         mutate(base_doc(), "locks.trace.wait_ns", 99), False),
        ("lock missing wait_ns",
         mutate(base_doc(), "locks.prefilter_memo.wait_ns", DELETE), False),
        ("phase self over total",
         mutate(base_doc(), "phases.0.self_ns", 2000), False),
        ("phase missing count",
         mutate(base_doc(), "phases.1.count", DELETE), False),
        ("duplicate phase path",
         mutate(base_doc(), "phases.1.path", "total"), False),
        ("rollup straggler not the max wall",
         mutate(merge_doc(), "shards.straggler",
                {"source": "shard1.json", "wall_ns": 700}), False),
        ("rollup straggler unknown source",
         mutate(merge_doc(), "shards.straggler.source", "ghost.json"),
         False),
        ("rollup utilization missing mean",
         mutate(merge_doc(), "shards.utilization.mean", DELETE), False),
        ("rollup per_shard negative wall",
         mutate(merge_doc(), "shards.per_shard.0.wall_ns", -1), False),
        # Fault-injection counters and the memory-budget stop reason.
        ("valid memory-budget stop", memory_budget, True),
        ("valid fault counter breakdown", faulted, True),
        ("fault.injected total disagrees with breakdown", fault_sum_wrong,
         False),
        ("fault.injected.* without a total", fault_no_total, False),
        ("counter checkpoint.recoveries",
         mutate(base_doc(), "counters",
                {"sweep.databases": 4, "checkpoint.recoveries": 1}), True),
        # Schema-v4 symbolic-valuation counters.
        ("old schema_version 3",
         mutate(base_doc(), "schema_version", 3), False),
        ("valid symbolic valuation counters", symbolic, True),
        ("valuation_classes over valuations_checked", classes_over_checked,
         False),
        ("valuation_classes without valuations_checked", classes_no_checked,
         False),
        ("rollup valid symbolic counters", rollup_symbolic, True),
        ("rollup valuation_classes over checked", rollup_classes_bad, False),
        # Leaf-cache footprint memo accounting.
        ("valid leaf memo accounting", leaf_memo, True),
        ("footprint_hits + leaf_evals off in verdict stats", leaf_stats_off,
         False),
        ("footprint_hits + leaf_evals off in counters", leaf_counters_off,
         False),
        ("leaves without leaf_evals", leaf_missing_evals, False),
        # Supervisor roll-up of a supervised shard_sweep run.
        ("valid supervisor rollup", supervised, True),
        ("supervisor missing relaunches",
         mutate(supervised, "supervisor.relaunches", DELETE), False),
        ("supervisor negative abandoned",
         mutate(supervised, "supervisor.abandoned", -1), False),
        ("supervisor abandoned over leases",
         mutate(supervised, "supervisor.abandoned", 9), False),
        ("supervisor zero leases",
         mutate(supervised, "supervisor.leases", 0), False),
        ("supervisor corruptions without relaunches",
         mutate(mutate(supervised, "supervisor.relaunches", 0),
                "supervisor.corruptions", 2), False),
    ]

    cases += [
        ("require-counter present", base_doc(), True,
         ("--require-counter", "sweep.databases")),
        ("require-counter absent", base_doc(), False,
         ("--require-counter", "graph.arena_bytes")),
    ]

    failures = 0
    for name, doc, expect_ok, *extra in cases:
        proc = run_checker(checker, doc, extra[0] if extra else ())
        ok = proc.returncode == 0
        if ok != expect_ok:
            failures += 1
            print(f"FAIL: {name}: expected "
                  f"{'accept' if expect_ok else 'reject'}, checker exited "
                  f"{proc.returncode}; stderr: {proc.stderr.strip()}")
        else:
            print(f"ok: {name}")
    if failures:
        print(f"{failures} case(s) failed")
        return 1
    print(f"all {len(cases)} schema checker cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
