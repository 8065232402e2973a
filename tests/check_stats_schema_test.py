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
        "schema_version": 5,
        "generator": "wsvc",
        "counters": {"sweep.databases": 4, "sweep.range_lo": 0},
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
        "schema_version": 5,
        "generator": "wsvc-merge",
        "counters": {"merge.shards": 3, "merge.gaps": 0},
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
            "phases": [
                {"path": "total", "total_ns": 1600, "self_ns": 100,
                 "count": 2},
                {"path": "total/check_db", "total_ns": 1500,
                 "self_ns": 1500, "count": 2},
            ],
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

    memo_counters = {"engine.valuations_checked": 100,
                     "engine.prefiltered": 49, "engine.searches": 15,
                     "engine.search_memo_hits": 36,
                     "engine.prefilter_memo_misses": 4,
                     "engine.prefilter_memo_hits": 96}
    memo = mutate(base_doc(), "counters",
                  {"sweep.databases": 4, **memo_counters})
    memo_hits_uncounted = mutate(base_doc(), "counters",
                                 {**memo_counters,
                                  "engine.search_memo_hits": 0})
    searches_without_checked = mutate(base_doc(), "counters",
                                      {"engine.searches": 3})
    rollup_memo = mutate(merge_doc(), "shards.counters",
                         {"engine.databases_checked": 4, **memo_counters})
    rollup_memo_bad = mutate(merge_doc(), "shards.counters",
                             {**memo_counters,
                              "engine.valuations_checked": 99})
    # Prefilter memo: one lookup per checked valuation. A database sweep
    # of 8 valuations over 4 databases that shares one memo across the
    # run misses once per distinct truth-status key.
    prefilter_counters = {"sweep.databases": 4,
                          "engine.databases_checked": 4,
                          "engine.valuations_checked": 8,
                          "engine.prefiltered": 8,
                          "engine.prefilter_memo_misses": 2,
                          "engine.prefilter_memo_hits": 6}
    prefilter_memo = mutate(base_doc(), "counters", prefilter_counters)
    prefilter_hit_uncounted = mutate(base_doc(), "counters",
                                     dict(prefilter_counters,
                                          **{"engine.prefilter_memo_hits":
                                             5}))
    rollup_prefilter_lookup_twice = mutate(
        merge_doc(), "shards.counters",
        dict(prefilter_counters, **{"engine.prefilter_memo_misses": 3}))

    # Verdict stats against the counters: one database, 8 instances, all
    # prefiltered through 2 memo keys.
    tallies = {"databases_checked": 1, "instances": 8, "prefiltered": 8,
               "searches": 0, "prefilter_memo_misses": 2,
               "prefilter_memo_hits": 6}
    verdict_tallies = mutate(
        mutate(base_doc(), "counters",
               dict(prefilter_counters,
                    **{"engine.databases_checked": 1,
                       "engine.instances": 8})),
        "verdict.stats", dict(tallies, jobs=2))
    # The valuation space reported where the counter has the instances.
    instances_off = mutate(verdict_tallies, "verdict.stats.instances", 16)
    prefiltered_off = mutate(
        mutate(verdict_tallies, "verdict.stats.prefiltered", 7),
        "verdict.stats.searches", 1)
    # A retried database books its first attempt's counters but not its
    # tallies.
    retried_tallies = mutate(prefiltered_off, "verdict.coverage.db_retries",
                             1)

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

    # Graph expansion memos: 3 peers x 10 expanded snapshots = 30 move
    # lookups, 4 of them evaluated, each looking up its 3 move rules.
    move_counters = {"sweep.databases": 4, "graph.successor_calls": 10,
                     "graph.move_lookups": 30, "graph.move_evals": 4,
                     "graph.rule_lookups": 12, "graph.rule_evals": 5,
                     "graph.input_lookups": 50, "graph.input_evals": 6}
    move_memo = mutate(mutate(base_doc(), "counters", move_counters),
                       "peers", 3)
    # The fan-out histogram: one sample per expanded snapshot (10), summing
    # to the graph's distinct transitions (37).
    fanout = {"count": 10, "sum": 37, "min": 1, "max": 8,
              "buckets": [0, 2, 3, 4, 1]}
    move_memo = mutate(
        mutate(move_memo, "counters",
               dict(move_counters, **{"graph.transitions": 37})),
        "histograms", {"graph.successors_per_snapshot": fanout})
    move_counters = move_memo["counters"]
    fanout_count_off = mutate(move_memo, "histograms",
                              {"graph.successors_per_snapshot":
                               dict(fanout, count=9)})
    fanout_sum_off = mutate(move_memo, "counters",
                            dict(move_counters,
                                 **{"graph.transitions": 36}))
    fanout_missing = mutate(move_memo, "histograms", {})
    rollup_fanout_bad = mutate(
        mutate(merge_doc(), "shards.counters",
               {"graph.successor_calls": 10, "graph.transitions": 37}),
        "shards.histograms",
        {"graph.successors_per_snapshot": dict(fanout, sum=38)})
    move_lookups_off = mutate(move_memo, "counters",
                              dict(move_counters,
                                   **{"graph.move_lookups": 29}))
    input_evals_over = mutate(move_memo, "counters",
                              dict(move_counters,
                                   **{"graph.input_evals": 51}))
    rule_evals_over = mutate(move_memo, "counters",
                             dict(move_counters,
                                  **{"graph.rule_evals": 13}))
    rule_lookups_without_move_evals = mutate(
        move_memo, "counters",
        dict(move_counters, **{"graph.move_evals": 0}))
    rule_evals_without_lookups = mutate(
        move_memo, "counters",
        {k: v for k, v in move_counters.items()
         if k != "graph.rule_lookups"})
    # Emitted-choice memo: 40 of the 50 input lookups had two or more
    # choices and probed it, 7 of them missed.
    choice_counters = dict(move_counters, **{"graph.choice_lookups": 40,
                                             "graph.choice_evals": 7})
    choice_memo = mutate(move_memo, "counters", choice_counters)
    choice_evals_over = mutate(move_memo, "counters",
                               dict(choice_counters,
                                    **{"graph.choice_evals": 41}))
    choice_lookups_over_input = mutate(move_memo, "counters",
                                       dict(choice_counters,
                                            **{"graph.choice_lookups": 51}))

    # Snapshot interning: 110 encoded candidates, 95 found interned and 15
    # interned as new snapshots. A probe that books a hit for a fresh
    # snapshot counts it twice.
    intern_counters = {"sweep.databases": 4, "graph.encode": 110,
                       "graph.intern_hits": 95, "graph.snapshots": 15}
    intern = mutate(base_doc(), "counters", intern_counters)
    intern_fresh_hit = mutate(base_doc(), "counters",
                              dict(intern_counters,
                                   **{"graph.intern_hits": 96}))
    rollup_intern_bad = mutate(merge_doc(), "shards.counters",
                               dict(intern_counters,
                                    **{"graph.snapshots": 14}))

    # Phase tree closure: every "a/b" path needs an "a" entry.
    deeper = mutate(base_doc(), "phases", base_doc()["phases"] + [
        {"path": "total/check_db/ndfs", "total_ns": 300, "self_ns": 300,
         "count": 2}])
    orphan = mutate(base_doc(), "phases", base_doc()["phases"] + [
        {"path": "total/graph_expand/leaf_eval", "total_ns": 30,
         "self_ns": 30, "count": 1}])

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
        ("valid nested phase tree", deeper, True),
        ("phase path without its parent entry", orphan, False),
        ("rollup phase path without its parent entry",
         mutate(merge_doc(), "shards.phases.0.path", "check_db"), False),
        ("rollup missing phases",
         mutate(merge_doc(), "shards.phases", DELETE), False),
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
        # Schema-v4 valuation accounting.
        ("old schema_version 3",
         mutate(base_doc(), "schema_version", 3), False),
        # Schema v5: the phase tree is the one record of phase time.
        ("old schema_version 4",
         mutate(base_doc(), "schema_version", 4), False),
        ("unknown top-level section (a flat timer map)",
         mutate(base_doc(), "timers",
                {"phase.total": {"total_ns": 1000, "count": 1}}), False),
        ("unknown rollup key", mutate(merge_doc(), "shards.timers", {}),
         False),
        ("valid search memo accounting", memo, True),
        ("search_memo_hits left out of the sum", memo_hits_uncounted, False),
        ("searches without valuations_checked", searches_without_checked,
         False),
        ("rollup valid search memo accounting", rollup_memo, True),
        ("rollup accounting off by one", rollup_memo_bad, False),
        ("valid prefilter memo accounting", prefilter_memo, True),
        ("prefilter memo hit left uncounted", prefilter_hit_uncounted,
         False),
        ("rollup prefilter memo looked up twice",
         rollup_prefilter_lookup_twice, False),
        ("valid verdict stats equal to the counters", verdict_tallies,
         True),
        ("verdict instances off the engine.instances counter",
         instances_off, False),
        ("verdict prefiltered off the engine.prefiltered counter",
         prefiltered_off, False),
        ("valid verdict tallies off the counters after a retry",
         retried_tallies, True),
        # Leaf-cache footprint memo accounting.
        ("valid leaf memo accounting", leaf_memo, True),
        ("footprint_hits + leaf_evals off in verdict stats", leaf_stats_off,
         False),
        ("footprint_hits + leaf_evals off in counters", leaf_counters_off,
         False),
        ("leaves without leaf_evals", leaf_missing_evals, False),
        # Graph expansion memo accounting.
        ("valid intern accounting", intern, True),
        ("intern hit booked for a fresh snapshot", intern_fresh_hit, False),
        ("roll-up intern accounting off", rollup_intern_bad, False),
        ("valid move memo accounting", move_memo, True),
        ("fan-out count off successor_calls", fanout_count_off, False),
        ("fan-out sum off transitions", fanout_sum_off, False),
        ("fan-out histogram missing", fanout_missing, False),
        ("rollup fan-out sum off transitions", rollup_fanout_bad, False),
        ("move_lookups != successor_calls * peers", move_lookups_off, False),
        ("input_evals over input_lookups", input_evals_over, False),
        ("rule_evals over rule_lookups", rule_evals_over, False),
        ("rule_lookups without move_evals", rule_lookups_without_move_evals,
         False),
        ("rule_evals without rule_lookups", rule_evals_without_lookups,
         False),
        ("valid choice memo accounting", choice_memo, True),
        ("choice_evals over choice_lookups", choice_evals_over, False),
        ("choice_lookups over input_lookups", choice_lookups_over_input,
         False),
        ("peers not a positive integer", mutate(move_memo, "peers", 0),
         False),
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
