#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ltl/property.h"
#include "modular/env_spec.h"
#include "modular/modular_verifier.h"
#include "obs/metrics.h"
#include "spec/parser.h"
#include "verifier/verifier.h"

namespace wsv::verifier {
namespace {

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

/// One verification run at a given jobs setting, with the observability
/// registry reset so per-run counters (engine.violations) are observable.
struct RunResult {
  VerificationResult result;
  std::string counterexample_text;  // empty when holds
  uint64_t violations_counter = 0;
};

RunResult VerifyWithJobs(const spec::Composition& comp,
                         const std::string& property_text, size_t jobs) {
  obs::Registry::Global().Reset();
  auto property = ltl::Property::Parse(property_text);
  EXPECT_TRUE(property.ok()) << property.status();
  VerifierOptions options;
  options.fresh_domain_size = 2;
  options.jobs = jobs;
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
  return run;
}

/// The determinism contract: verdict, witness database index, witness
/// valuation and the full rendered counterexample are bit-for-bit identical
/// at jobs = 1, 2 and 4, and exactly one violation is reported regardless
/// of how many workers found candidates concurrently.
TEST(ParallelSweep, ViolationIsDeterministicAcrossJobCounts) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  const std::string property = "forall x: G(not Requester.got(x))";

  RunResult serial = VerifyWithJobs(*comp, property, 1);
  ASSERT_FALSE(serial.result.holds);
  ASSERT_TRUE(serial.result.counterexample.has_value());
  EXPECT_EQ(serial.violations_counter, 1u);
  EXPECT_EQ(serial.result.stats.jobs, 1u);
  const size_t serial_index = serial.result.counterexample->database_index;
  const size_t serial_checked = serial.result.stats.databases_checked;

  for (size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunResult parallel = VerifyWithJobs(*comp, property, jobs);
    ASSERT_FALSE(parallel.result.holds);
    ASSERT_TRUE(parallel.result.counterexample.has_value());
    EXPECT_EQ(parallel.result.stats.jobs, jobs);
    EXPECT_EQ(parallel.result.counterexample->database_index, serial_index);
    EXPECT_EQ(parallel.result.counterexample->closure_valuation,
              serial.result.counterexample->closure_valuation);
    EXPECT_EQ(parallel.counterexample_text, serial.counterexample_text);
    // Exactly one violation is reported even when several workers had
    // in-flight candidates.
    EXPECT_EQ(parallel.violations_counter, 1u);
    // In-flight databases beyond the witness may add to the aggregate, but
    // everything before the witness must have been checked.
    EXPECT_GE(parallel.result.stats.databases_checked, serial_checked);
  }
}

/// When the property holds the sweep runs to exhaustion: every database is
/// dispatched exactly once, so all aggregate statistics match the serial
/// run's exactly.
TEST(ParallelSweep, HoldsVerdictHasIdenticalStatistics) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  const std::string property =
      "forall x: G(Requester.got(x) -> Requester.item(x))";

  RunResult serial = VerifyWithJobs(*comp, property, 1);
  ASSERT_TRUE(serial.result.holds);
  EXPECT_EQ(serial.violations_counter, 0u);

  for (size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunResult parallel = VerifyWithJobs(*comp, property, jobs);
    EXPECT_TRUE(parallel.result.holds);
    EXPECT_EQ(parallel.violations_counter, 0u);
    EXPECT_EQ(parallel.result.stats.databases_checked,
              serial.result.stats.databases_checked);
    EXPECT_EQ(parallel.result.stats.searches, serial.result.stats.searches);
    EXPECT_EQ(parallel.result.stats.prefiltered,
              serial.result.stats.prefiltered);
    EXPECT_EQ(parallel.result.stats.search.snapshots,
              serial.result.stats.search.snapshots);
    EXPECT_EQ(parallel.result.stats.search.product_states,
              serial.result.stats.search.product_states);
  }
}

/// A generated open composition (fuzz corpus seed 17, external regime): P1
/// stores what the environment sends on q0 when its database has it and
/// forwards it to P2, which stores anything but "c0".
constexpr char kExternalPipeline[] = R"(
peer P1 {
  database { d1(a0); }
  state { s1(a0); }
  inqueue flat { q0(m0); }
  outqueue flat { q1(m0); }
  rules {
    insert s1(x) :- (q0(x) and d1(x));
    send q1(x) :- q0(x);
  }
}
peer P2 {
  state { s2(a0); }
  action { out(a0); }
  inqueue flat { q1(m0); }
  outqueue flat { final(m0); }
  rules {
    insert s2(x) :- (q1(x) and not (x = "c0"));
    action out(x) :- q1(x);
    send final(x) :- q1(x);
  }
}
composition Gen { peers P1, P2; }
)";

/// The modular sweep analogue of ValuationFanout's holds test: every
/// database is checked at every job count, so the verdict and every
/// aggregate match jobs 1 exactly. The prefilter memo is built once per
/// run, not once per database: its entries depend on the automaton and the
/// truth-status key alone, so the databases share the few distinct keys
/// and the memo misses fewer times than there are databases.
TEST(ParallelSweep, HoldsModularSweepSharesOnePrefilterMemo) {
  auto comp = spec::ParseComposition(kExternalPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  // Holds only under the environment spec: the environment sends "c0"
  // alone, which P2 never stores.
  auto property = ltl::Property::Parse("forall x: G(P2.s2(x) -> (x = \"c0\"))");
  ASSERT_TRUE(property.ok()) << property.status();
  auto env = modular::EnvironmentSpec::Parse(
      "G (forall x: env.q0(x) -> (x = \"c0\"))");
  ASSERT_TRUE(env.ok()) << env.status();
  auto run = [&](size_t jobs) {
    obs::Registry::Global().Reset();
    modular::ModularVerifierOptions options;
    options.fresh_domain_size = 1;
    options.jobs = jobs;
    options.env_quantifier_domain = {"c0", "c1"};
    options.run.env_message_candidates["q0"] = {{"c0"}, {"c1"}};
    modular::ModularVerifier verifier(&*comp, options);
    auto result = verifier.Verify(*property, *env);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(*result);
  };

  const VerificationResult serial = run(1);
  ASSERT_TRUE(serial.holds);
  EXPECT_GT(serial.stats.databases_checked, 1u);
  for (size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const VerificationResult r = jobs == 1 ? serial : run(jobs);
    EXPECT_TRUE(r.holds);
    EXPECT_EQ(r.stats.databases_checked, serial.stats.databases_checked);
    EXPECT_EQ(r.stats.instances, serial.stats.instances);
    EXPECT_EQ(r.stats.prefiltered, serial.stats.prefiltered);
    EXPECT_EQ(r.stats.searches, serial.stats.searches);
    EXPECT_EQ(r.stats.prefilter_memo_misses,
              serial.stats.prefilter_memo_misses);
    EXPECT_EQ(r.stats.prefilter_memo_hits, serial.stats.prefilter_memo_hits);
    EXPECT_LT(r.stats.prefilter_memo_misses, r.stats.databases_checked);
    EXPECT_EQ(r.stats.search.snapshots, serial.stats.search.snapshots);
    EXPECT_EQ(r.stats.search.graph_transitions,
              serial.stats.search.graph_transitions);
    EXPECT_EQ(r.stats.search.product_states,
              serial.stats.search.product_states);
    EXPECT_EQ(r.stats.search.leaf_cache_hits,
              serial.stats.search.leaf_cache_hits);
    EXPECT_EQ(r.stats.search.leaf_cache_misses,
              serial.stats.search.leaf_cache_misses);
    EXPECT_EQ(r.stats.search.leaf_evals, serial.stats.search.leaf_evals);
    EXPECT_EQ(r.stats.search.footprint_hits,
              serial.stats.search.footprint_hits);
  }
}

/// jobs = 0 resolves to the hardware concurrency (at least one worker) and
/// reports the resolved value back through the stats.
TEST(ParallelSweep, JobsZeroResolvesToHardwareConcurrency) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  RunResult run = VerifyWithJobs(
      *comp, "forall x: G(Requester.got(x) -> Requester.item(x))", 0);
  EXPECT_TRUE(run.result.holds);
  EXPECT_GE(run.result.stats.jobs, 1u);
}

/// max_databases still produces the bounded-verdict budget status when the
/// sweep is parallel.
TEST(ParallelSweep, MaxDatabasesBoundsParallelSweep) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  obs::Registry::Global().Reset();
  auto property =
      ltl::Property::Parse("forall x: G(Requester.got(x) -> "
                           "Requester.item(x))");
  ASSERT_TRUE(property.ok());
  VerifierOptions options;
  options.fresh_domain_size = 2;
  options.jobs = 4;
  options.max_databases = 1;
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->holds);
  EXPECT_LE(result->stats.databases_checked, 1u);
  EXPECT_FALSE(result->regime.ok());  // bounded verdict flagged
  EXPECT_FALSE(result->complete);
}

}  // namespace
}  // namespace wsv::verifier
