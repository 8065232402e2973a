#ifndef WSVERIFY_BENCH_BENCH_UTIL_H_
#define WSVERIFY_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harness (DESIGN.md §4). Each bench
// binary regenerates one experiment row/series: it prints a table header
// describing the series and reports measured numbers through
// google-benchmark counters, so `for b in build/bench/*; do $b; done`
// reproduces the full evaluation.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "common/ledger.h"
#include "obs/metrics.h"
#include "obs/stats_json.h"
#include "obs/timer.h"
#include "spec/parser.h"

namespace wsv::bench {

/// Zeroes the global observability state — counter registry, worker time
/// ledgers, and the phase tree — so the exported counters reflect this
/// benchmark's timing loop only. Call before `for (auto _ : state)`.
inline void ResetObs() {
  obs::Registry::Global().Reset();
  LedgerRegistry::Global().Reset();
  obs::PhaseTreeReset();
}

/// Exports the global registry into google-benchmark user counters,
/// averaged per iteration — `bench_* --benchmark_format=json` then carries
/// the same counter names as `wsvc --stats-json` (see README
/// "Observability"). Call after the timing loop.
inline void ExportObsCounters(benchmark::State& state) {
  for (const auto& [name, value] : obs::Registry::Global().CounterValues()) {
    state.counters[name] = benchmark::Counter(
        static_cast<double>(value), benchmark::Counter::kAvgIterations);
  }
  // Peak RSS is a process-lifetime high-water mark, not a per-iteration
  // quantity — exported unaveraged so run_bench/bench_diff can compare
  // memory footprints across recordings.
  state.counters["process.max_rss_kb"] =
      benchmark::Counter(static_cast<double>(obs::ProcessMaxRssKb()));
}

/// Parses a composition and aborts on error (bench specs are static).
inline spec::Composition MustParse(const char* source) {
  auto comp = spec::ParseComposition(source);
  if (!comp.ok()) {
    std::fprintf(stderr, "bench spec error: %s\n",
                 comp.status().ToString().c_str());
    std::abort();
  }
  return std::move(*comp);
}

/// The two-peer request/response composition used by several experiments:
/// Requester sends req(x) for catalog items, Responder echoes resp(x).
inline constexpr char kPingPongSpec[] = R"(
peer Requester {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); }
  inqueue flat  { resp(x); }
  outqueue flat { req(x); }
  rules {
    options ask(x) :- item(x);
    send req(x) :- ask(x);
    insert got(x) :- ?resp(x);
  }
}
peer Responder {
  inqueue flat  { req(x); }
  outqueue flat { resp(x); }
  rules {
    send resp(x) :- ?req(x);
  }
}
)";

/// Prints an experiment banner once per binary.
inline void Banner(const char* experiment_id, const char* claim) {
  std::printf("### %s\n%s\n", experiment_id, claim);
}

}  // namespace wsv::bench

#endif  // WSVERIFY_BENCH_BENCH_UTIL_H_
