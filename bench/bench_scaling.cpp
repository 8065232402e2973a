// E-T3.4: complexity-shape experiment for Theorem 3.4 / Lemma 3.5.
//
// Two series on synthetic single-peer specifications:
//  * arity sweep — database/state arity a = 1..3 with full database
//    enumeration over a fixed pseudo-domain: cost jumps exponentially in a
//    (the paper: PSPACE for fixed arity bound, EXPSPACE otherwise);
//  * relation-count sweep at fixed arity — cost grows with specification
//    size but stays within the fixed-arity regime.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "ltl/property.h"
#include "verifier/verifier.h"

namespace {

using namespace wsv;

/// Builds a single-peer spec with `relations` database/input/state triples
/// of the given arity: options in_i <- r_i; insert s_i <- in_i.
spec::Composition SyntheticPeer(size_t relations, size_t arity) {
  std::string vars;
  for (size_t i = 0; i < arity; ++i) {
    if (i > 0) vars += ", ";
    vars += "x" + std::to_string(i);
  }
  std::string src = "peer P {\n  database {";
  for (size_t i = 0; i < relations; ++i) {
    src += " r" + std::to_string(i) + "(" + vars + ");";
  }
  src += " }\n  input {";
  for (size_t i = 0; i < relations; ++i) {
    src += " in" + std::to_string(i) + "(" + vars + ");";
  }
  src += " }\n  state {";
  for (size_t i = 0; i < relations; ++i) {
    src += " s" + std::to_string(i) + "(" + vars + ");";
  }
  src += " }\n  rules {\n";
  for (size_t i = 0; i < relations; ++i) {
    std::string idx = std::to_string(i);
    src += "    options in" + idx + "(" + vars + ") :- r" + idx + "(" + vars +
           ");\n";
    src += "    insert s" + idx + "(" + vars + ") :- in" + idx + "(" + vars +
           ");\n";
  }
  src += "  }\n}\n";
  return bench::MustParse(src.c_str());
}

void RunVerification(benchmark::State& state, size_t relations, size_t arity) {
  spec::Composition comp = SyntheticPeer(relations, arity);
  // Safety: states only hold database facts (holds over every database).
  std::string vars;
  for (size_t i = 0; i < arity; ++i) {
    if (i > 0) vars += ", ";
    vars += "x" + std::to_string(i);
  }
  auto property = ltl::Property::Parse("G(not (exists " + vars + ": s0(" +
                                       vars + ") and not r0(" + vars + ")))");
  if (!property.ok()) {
    state.SkipWithError(property.status().ToString().c_str());
    return;
  }
  verifier::VerifierOptions options;
  options.fresh_domain_size = 2;  // two fresh elements: 2^(2^arity) databases
  options.max_databases = 4096;
  options.budget.max_states = 500000;
  size_t databases = 0;
  size_t snapshots = 0;
  bench::ResetObs();
  for (auto _ : state) {
    verifier::Verifier verifier(&comp, options);
    auto result = verifier.Verify(*property);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    if (!result->holds) {
      state.SkipWithError("property unexpectedly violated");
      return;
    }
    databases = result->stats.databases_checked;
    snapshots = result->stats.search.snapshots;
  }
  bench::ExportObsCounters(state);
  state.counters["databases"] = static_cast<double>(databases);
  state.counters["snapshots"] = static_cast<double>(snapshots);
}

void BM_AritySweep(benchmark::State& state) {
  RunVerification(state, /*relations=*/1,
                  /*arity=*/static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_AritySweep)
    ->ArgName("arity")
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_RelationSweep(benchmark::State& state) {
  RunVerification(state, /*relations=*/static_cast<size_t>(state.range(0)),
                  /*arity=*/1);
}
BENCHMARK(BM_RelationSweep)
    ->ArgName("relations")
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Parallel database sweep at a fixed workload (arity 2: 2^(2^2) raw
/// databases per relation): wall time versus worker count. UseRealTime —
/// CPU time sums across workers and would hide the speedup.
void BM_JobsSweep(benchmark::State& state) {
  spec::Composition comp = SyntheticPeer(/*relations=*/2, /*arity=*/2);
  auto property = ltl::Property::Parse(
      "G(not (exists x0, x1: s0(x0, x1) and not r0(x0, x1)))");
  if (!property.ok()) {
    state.SkipWithError(property.status().ToString().c_str());
    return;
  }
  verifier::VerifierOptions options;
  options.fresh_domain_size = 2;
  options.budget.max_states = 500000;
  options.jobs = static_cast<size_t>(state.range(0));
  size_t databases = 0;
  bench::ResetObs();
  for (auto _ : state) {
    verifier::Verifier verifier(&comp, options);
    auto result = verifier.Verify(*property);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    if (!result->holds) {
      state.SkipWithError("property unexpectedly violated");
      return;
    }
    databases = result->stats.databases_checked;
  }
  bench::ExportObsCounters(state);
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["databases"] = static_cast<double>(databases);
}
BENCHMARK(BM_JobsSweep)
    ->ArgName("jobs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Within-database parallelism and the search memo: ONE pinned database,
/// many property instances (|domain|^2 = 100 valuations of a two-variable
/// closure over 3 database values + 7 fresh), so all speedup must come from
/// the second scheduler level — parallel graph exploration, leaf sealing
/// and the chunked valuation fan-out — not from sweeping databases. The
/// property is a response shape, G(s -> F t), whose leaves flip across
/// snapshots, so every valuation touching a database value needs a real
/// product search. Each closure variable has 4 leaf signatures (a, b, c,
/// or fresh/never-satisfied): 49 valuations are prefiltered and the other
/// 51 share 15 searches through the search memo, at every job count
/// (engine.searches + engine.search_memo_hits in the exported counters).
void BM_ValuationFanout(benchmark::State& state) {
  spec::Composition comp = bench::MustParse(R"(
peer Store {
  database { r(x); }
  input    { in(x); }
  state    { s(x); t(x); }
  rules {
    options in(x) :- r(x);
    insert s(x) :- in(x);
    insert t(x) :- s(x);
  }
}
)");
  auto property = ltl::Property::Parse(
      "forall x, y: G((Store.s(x) -> F Store.t(x)) and "
      "(Store.s(y) -> F Store.t(y)))");
  if (!property.ok()) {
    state.SkipWithError(property.status().ToString().c_str());
    return;
  }
  verifier::VerifierOptions options;
  options.fresh_domain_size = 7;  // 10-value domain, 100 valuations
  options.budget.max_states = 500000;
  options.jobs = static_cast<size_t>(state.range(0));
  verifier::NamedDatabase db;
  db["r"] = {{"a"}, {"b"}, {"c"}};
  options.fixed_databases = std::vector<verifier::NamedDatabase>{db};
  size_t valuations = 0;
  size_t searches = 0;
  bench::ResetObs();
  for (auto _ : state) {
    verifier::Verifier verifier(&comp, options);
    auto result = verifier.Verify(*property);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    if (!result->holds) {
      state.SkipWithError("property unexpectedly violated");
      return;
    }
    valuations = result->stats.instances;
    searches = result->stats.searches;
  }
  bench::ExportObsCounters(state);
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["valuations"] = static_cast<double>(valuations);
  state.counters["searches"] = static_cast<double>(searches);
}
BENCHMARK(BM_ValuationFanout)
    ->ArgName("jobs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  wsv::bench::Banner(
      "E-T3.4 (complexity shape)",
      "PSPACE for fixed arity, EXPSPACE otherwise: verification cost across "
      "all databases jumps exponentially with relation arity, and grows "
      "with specification size at fixed arity.");
  // --stats-json PATH (consumed before google-benchmark sees argv): after
  // the benchmarks run, dump the obs registry as a stats document so the
  // `perf` ctest chain can schema-check it and assert the flat-path
  // counters (graph.arena_bytes etc.) are live in an optimized binary.
  std::string stats_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--stats-json" && i + 1 < argc) {
      stats_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!stats_path.empty()) {
    auto status = wsv::obs::WriteStatsJson(wsv::obs::Registry::Global(),
                                           "bench_scaling", stats_path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_scaling: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
