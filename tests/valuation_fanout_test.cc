#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/run_control.h"
#include "ltl/property.h"
#include "obs/metrics.h"
#include "spec/parser.h"
#include "verifier/verifier.h"

namespace wsv::verifier {
namespace {

// A pinned database drives the within-database path: one configuration
// graph, many property instances (|domain|^2 with two closure variables),
// exercising the parallel graph exploration + valuation fan-out levels of
// the scheduler rather than the across-database sweep.
constexpr char kPipeline[] = R"(
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
)";

// Request/response pair (specs/pingpong.wsv): with items pinned or swept,
// its configuration graphs outgrow a small state budget.
constexpr char kPingPong[] = R"(
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

struct RunResult {
  VerificationResult result;
  std::string counterexample_text;  // empty when holds
  uint64_t violations_counter = 0;
  uint64_t chunks_counter = 0;
  uint64_t checked_counter = 0;
  uint64_t prefiltered_counter = 0;
  uint64_t searches_counter = 0;
  uint64_t search_memo_hits_counter = 0;
};

/// Optional knobs of VerifyPinned beyond the property and job count.
struct PinnedRun {
  RunControl* control = nullptr;
  size_t fresh = 2;
  size_t v_lo = 0;
  size_t v_hi = static_cast<size_t>(-1);
  size_t max_states = SearchBudget{}.max_states;
  /// One database per peer (kPipeline's by default); none sweeps every
  /// database instead.
  std::optional<std::vector<NamedDatabase>> databases =
      std::vector<NamedDatabase>{{{"r", {{"a"}, {"b"}, {"c"}}}}};
};

RunResult VerifyPinned(const spec::Composition& comp,
                       const std::string& property_text, size_t jobs,
                       const PinnedRun& run_options = {}) {
  obs::Registry::Global().Reset();
  auto property = ltl::Property::Parse(property_text);
  EXPECT_TRUE(property.ok()) << property.status();
  VerifierOptions options;
  options.fresh_domain_size = run_options.fresh;
  options.jobs = jobs;
  options.control = run_options.control;
  options.valuation_range_lo = run_options.v_lo;
  options.valuation_range_hi = run_options.v_hi;
  options.budget.max_states = run_options.max_states;
  options.fixed_databases = run_options.databases;
  Verifier verifier(&comp, options);
  auto result = verifier.Verify(*property);
  EXPECT_TRUE(result.ok()) << result.status();
  RunResult run;
  run.result = std::move(*result);
  if (run.result.counterexample.has_value()) {
    run.counterexample_text =
        run.result.counterexample->ToString(comp, verifier.interner());
  }
  run.violations_counter =
      obs::Registry::Global().counter("engine.violations").value();
  obs::Registry& registry = obs::Registry::Global();
  run.chunks_counter = registry.counter("engine.valuation_chunks").value();
  run.checked_counter = registry.counter("engine.valuations_checked").value();
  run.prefiltered_counter = registry.counter("engine.prefiltered").value();
  run.searches_counter = registry.counter("engine.searches").value();
  run.search_memo_hits_counter =
      registry.counter("engine.search_memo_hits").value();
  return run;
}

/// The determinism contract for the within-database fan-out: verdict,
/// witness valuation index, witness label and the full rendered
/// counterexample are bit-for-bit identical at jobs = 1, 2 and 4.
TEST(ValuationFanout, ViolationIsDeterministicAcrossJobCounts) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  // Violated: Store eventually inserts t(a) while G(not ...) demands never.
  const std::string property =
      "forall x, y: G(not (Store.t(x) and Store.t(y)))";

  RunResult serial = VerifyPinned(*comp, property, 1);
  ASSERT_FALSE(serial.result.holds);
  ASSERT_TRUE(serial.result.counterexample.has_value());
  EXPECT_EQ(serial.violations_counter, 1u);
  EXPECT_EQ(serial.result.stats.jobs, 1u);
  const size_t serial_vi = serial.result.counterexample->valuation_index;
  ASSERT_NE(serial_vi, static_cast<size_t>(-1));

  for (size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunResult parallel = VerifyPinned(*comp, property, jobs);
    ASSERT_FALSE(parallel.result.holds);
    ASSERT_TRUE(parallel.result.counterexample.has_value());
    EXPECT_EQ(parallel.result.stats.jobs, jobs);
    EXPECT_EQ(parallel.result.counterexample->valuation_index, serial_vi);
    EXPECT_EQ(parallel.result.counterexample->database_index,
              serial.result.counterexample->database_index);
    EXPECT_EQ(parallel.result.counterexample->closure_valuation,
              serial.result.counterexample->closure_valuation);
    EXPECT_EQ(parallel.counterexample_text, serial.counterexample_text);
    // Exactly one violation reported even with concurrent candidates.
    EXPECT_EQ(parallel.violations_counter, 1u);
  }
}

/// When the property holds every valuation is checked exactly once at any
/// job count, so all aggregate statistics — graph size, searches,
/// prefilter and memo totals, leaf-cache hits/misses — match the jobs-1
/// run's exactly. This pins down the level-merged interning (ids
/// bit-for-bit), the sealed leaf cache (one miss per snapshot) and the
/// exactly-once prefilter memo. One chunked fan-out serves every job
/// count, jobs 1 included.
TEST(ValuationFanout, HoldsVerdictHasIdenticalStatistics) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  // Holds: t(x) is only ever inserted from s(x).
  const std::string property =
      "forall x, y: G((Store.t(x) -> Store.s(x)) and "
      "(Store.t(y) -> Store.s(y)))";

  RunResult serial = VerifyPinned(*comp, property, 1);
  ASSERT_TRUE(serial.result.holds) << serial.counterexample_text;
  EXPECT_EQ(serial.violations_counter, 0u);
  EXPECT_GT(serial.result.stats.valuations_checked, 1u);
  EXPECT_GT(serial.chunks_counter, 0u);

  for (size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunResult parallel = VerifyPinned(*comp, property, jobs);
    EXPECT_TRUE(parallel.result.holds) << parallel.counterexample_text;
    EXPECT_EQ(parallel.violations_counter, 0u);
    EXPECT_GT(parallel.chunks_counter, 0u);
    EXPECT_EQ(parallel.result.stats.valuations_checked,
              serial.result.stats.valuations_checked);
    EXPECT_EQ(parallel.result.stats.searches, serial.result.stats.searches);
    EXPECT_EQ(parallel.result.stats.prefiltered,
              serial.result.stats.prefiltered);
    EXPECT_EQ(parallel.result.stats.prefilter_memo_misses,
              serial.result.stats.prefilter_memo_misses);
    EXPECT_EQ(parallel.result.stats.prefilter_memo_hits,
              serial.result.stats.prefilter_memo_hits);
    EXPECT_EQ(parallel.result.stats.search.snapshots,
              serial.result.stats.search.snapshots);
    EXPECT_EQ(parallel.result.stats.search.graph_transitions,
              serial.result.stats.search.graph_transitions);
    EXPECT_EQ(parallel.result.stats.search.product_states,
              serial.result.stats.search.product_states);
    EXPECT_EQ(parallel.result.stats.search.leaf_cache_hits,
              serial.result.stats.search.leaf_cache_hits);
    EXPECT_EQ(parallel.result.stats.search.leaf_cache_misses,
              serial.result.stats.search.leaf_cache_misses);
  }
}

/// A configuration graph cut by the state budget is grown by the searches,
/// so they run on the caller alone, in index order, at every job count:
/// pinned (a violation found among budget-cut searches) and swept (every
/// database checked, bounded), the verdict, stop reason, witness indices,
/// searches and snapshots match at jobs 1, 2 and 4.
TEST(ValuationFanout, BudgetCutGraphRunsTheSameAtEveryJobCount) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok()) << comp.status();
  struct Case {
    const char* name;
    std::string property;
    PinnedRun run;
    bool holds;
  };
  const Case cases[] = {
      {"pinned", "forall x, y: G(not (Requester.ask(x) and Requester.ask(y)))",
       {.fresh = 1,
        .max_states = 100,  // of 224 snapshots
        .databases = std::vector<NamedDatabase>{
            {{"item", {{"a"}, {"b"}, {"c"}}}}, {}}},
       false},
      {"swept",
       "forall x, y: G((Requester.got(x) and Requester.got(y)) -> "
       "(Requester.item(x) and Requester.item(y)))",
       {.fresh = 2, .max_states = 30, .databases = std::nullopt},
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RunResult serial = VerifyPinned(*comp, c.property, 1, c.run);
    ASSERT_EQ(serial.result.holds, c.holds) << serial.counterexample_text;
    EXPECT_EQ(serial.result.coverage.stop_reason, StopReason::kBudget);
    EXPECT_GT(serial.result.stats.searches, 1u);
    PinnedRun uncut_run = c.run;
    uncut_run.max_states = PinnedRun{}.max_states;
    RunResult uncut = VerifyPinned(*comp, c.property, 1, uncut_run);
    EXPECT_LT(serial.result.stats.search.snapshots,
              uncut.result.stats.search.snapshots);  // graphs were cut
    auto witness = [](const RunResult& run) {
      const auto& cex = run.result.counterexample;
      return cex.has_value() ? std::make_pair(cex->database_index,
                                              cex->valuation_index)
                             : std::make_pair(static_cast<size_t>(-1),
                                              static_cast<size_t>(-1));
    };
    for (size_t jobs : {2u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      RunResult parallel = VerifyPinned(*comp, c.property, jobs, c.run);
      EXPECT_EQ(parallel.result.holds, serial.result.holds);
      EXPECT_EQ(parallel.result.coverage.stop_reason,
                serial.result.coverage.stop_reason);
      EXPECT_EQ(witness(parallel), witness(serial));
      EXPECT_EQ(parallel.counterexample_text, serial.counterexample_text);
      EXPECT_EQ(parallel.result.stats.searches, serial.result.stats.searches);
      EXPECT_EQ(parallel.result.stats.search.snapshots,
                serial.result.stats.search.snapshots);
    }
  }
}

/// An already-canceled control stops a parallel within-database run before
/// any instance is checked: deterministic partial outcome, kCanceled.
TEST(ValuationFanout, CancelStopsParallelRunDeterministically) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  RunControl control;
  control.RequestCancel();
  RunResult run = VerifyPinned(
      *comp, "forall x, y: G(not (Store.t(x) and Store.t(y)))", 4,
      {.control = &control});
  EXPECT_TRUE(run.result.holds);  // no witness reached — partial verdict
  EXPECT_EQ(run.result.coverage.stop_reason, StopReason::kCanceled);
  EXPECT_EQ(run.result.stats.searches, 0u);
  EXPECT_EQ(run.violations_counter, 0u);
}

/// An expired deadline cuts a parallel valuation sweep between chunks: the
/// stop status propagates out of the fan-out as kDeadline, not as a crash,
/// hang or hard error.
TEST(ValuationFanout, ExpiredDeadlineCutsParallelSweep) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  RunControl control;
  control.ArmDeadlineMs(1);
  // Let the deadline lapse before the run starts; the first poll latches it.
  while (control.Check().ok()) {
  }
  RunResult run = VerifyPinned(
      *comp, "forall x, y: G(not (Store.t(x) and Store.t(y)))", 4,
      {.control = &control});
  EXPECT_TRUE(run.result.holds);
  EXPECT_EQ(run.result.coverage.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(run.violations_counter, 0u);
}

/// The search memo on the response property of BM_ValuationFanout (3
/// database values + 7 fresh, 100 valuations): each closure variable has 4
/// leaf signatures, so the 51 valuations the prefilter keeps share 15
/// searches. Every signature is searched exactly once at any job count, so
/// the split is identical at jobs 1, 2 and 4, and every checked valuation
/// is prefiltered, searched or served by the memo.
TEST(ValuationFanout, SearchMemoRunsOneSearchPerSignatureAtEveryJobCount) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  const std::string property =
      "forall x, y: G((Store.s(x) -> F Store.t(x)) and "
      "(Store.s(y) -> F Store.t(y)))";
  for (size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunResult run = VerifyPinned(*comp, property, jobs, {.fresh = 7});
    EXPECT_TRUE(run.result.holds) << run.counterexample_text;
    EXPECT_EQ(run.checked_counter, 100u);
    EXPECT_EQ(run.prefiltered_counter, 49u);
    EXPECT_EQ(run.searches_counter, 15u);
    EXPECT_EQ(run.search_memo_hits_counter, 36u);
    EXPECT_EQ(run.result.stats.searches, 15u);
    EXPECT_EQ(run.result.stats.prefiltered, 49u);
  }
}

/// Oracle for the memo: a one-valuation slice [i, i + 1) has nothing to
/// share, so it searches valuation i on its own. The memoized run's
/// witness must be the least violated slice (with the same rendered
/// trace), a range past the witness reports the next violated slice even
/// when its upper bound overshoots the space, the range before the witness
/// holds, and a holding property holds on every slice. In the one-variable
/// case x = a holds while x = b and x = c are violated with the same
/// prefilter key, so a memo keyed too coarsely fails here.
TEST(ValuationFanout, OneValuationSlicesAgreeWithTheMemoizedRun) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  struct Case {
    std::string violated;
    std::string holds;
    size_t space;
  };
  const Case cases[] = {
      // 3 database values + 2 fresh, two variables.
      {"forall x, y: G(not (Store.t(x) and Store.t(y)))",
       "forall x, y: G((Store.t(x) -> Store.s(x)) and "
       "(Store.t(y) -> Store.s(y)))",
       25},
      {"forall x: G(Store.t(x) -> F Store.s(\"a\"))",
       "forall x: G(Store.t(x) -> F Store.s(x))", 5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.violated);
    RunResult full = VerifyPinned(*comp, c.violated, 1);
    ASSERT_FALSE(full.result.holds);
    ASSERT_TRUE(full.result.counterexample.has_value());
    const size_t witness = full.result.counterexample->valuation_index;
    ASSERT_EQ(full.result.stats.valuations_checked, c.space);

    std::vector<size_t> violated_slices;
    for (size_t i = 0; i < c.space; ++i) {
      SCOPED_TRACE("slice=" + std::to_string(i));
      RunResult held =
          VerifyPinned(*comp, c.holds, 1, {.v_lo = i, .v_hi = i + 1});
      EXPECT_TRUE(held.result.holds) << held.counterexample_text;
      RunResult slice =
          VerifyPinned(*comp, c.violated, 1, {.v_lo = i, .v_hi = i + 1});
      EXPECT_EQ(slice.search_memo_hits_counter, 0u);
      if (slice.result.holds) continue;
      ASSERT_TRUE(slice.result.counterexample.has_value());
      EXPECT_EQ(slice.result.counterexample->valuation_index, i);
      violated_slices.push_back(i);
      if (i == witness) {
        EXPECT_EQ(slice.counterexample_text, full.counterexample_text);
      }
    }
    ASSERT_FALSE(violated_slices.empty());
    EXPECT_EQ(violated_slices.front(), witness);
    ASSERT_GE(violated_slices.size(), 2u);  // the tail below has a witness

    for (size_t jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      RunResult tail = VerifyPinned(
          *comp, c.violated, jobs, {.v_lo = witness + 1, .v_hi = c.space + 10});
      ASSERT_FALSE(tail.result.holds);
      EXPECT_EQ(tail.result.counterexample->valuation_index,
                violated_slices[1]);
      RunResult before =
          VerifyPinned(*comp, c.violated, jobs, {.v_hi = witness});
      EXPECT_TRUE(before.result.holds) << before.counterexample_text;
    }
  }
}

}  // namespace
}  // namespace wsv::verifier
