#include <gtest/gtest.h>

#include "fo/eval.h"
#include "ltl/property.h"
#include "runtime/simulator.h"
#include "runtime/snapshot_view.h"
#include "spec/parser.h"
#include "verifier/db_enum.h"
#include "verifier/domain_bound.h"
#include "verifier/engine.h"
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

TEST(DatabaseEnumerator, RawAndCanonicalCounts) {
  auto comp = spec::ParseComposition(R"(
peer P { database { r(x); } rules { } }
)");
  ASSERT_TRUE(comp.ok());
  PseudoDomain pd = BuildPseudoDomain(*comp, {}, 2);
  {
    DatabaseEnumerator raw(&*comp, pd.domain, pd.fresh,
                           /*iso_reduce=*/false);
    EXPECT_EQ(raw.RawCount(), 4u);  // subsets of a 2-element universe
    std::vector<data::Instance> dbs;
    size_t count = 0;
    while (raw.Next(&dbs)) ++count;
    EXPECT_EQ(count, 4u);
  }
  {
    DatabaseEnumerator canonical(&*comp, pd.domain, pd.fresh,
                                 /*iso_reduce=*/true);
    std::vector<data::Instance> dbs;
    size_t count = 0;
    while (canonical.Next(&dbs)) ++count;
    EXPECT_EQ(count, 3u);  // orbits: {}, one singleton, the pair
  }
}

/// Slot::mask indexes relation subsets with a uint64_t, so a tuple universe
/// beyond 63 tuples (|domain|^arity) must surface as an explicit error, not
/// silent shift overflow.
TEST(DatabaseEnumerator, OversizedTupleUniverseIsAnError) {
  auto comp = spec::ParseComposition(R"(
peer P { database { r(x, y); } rules { } }
)");
  ASSERT_TRUE(comp.ok());
  PseudoDomain pd = BuildPseudoDomain(*comp, {}, 9);  // 9^2 = 81 > 63
  DatabaseEnumerator overflow(&*comp, pd.domain, pd.fresh,
                              /*iso_reduce=*/true);
  EXPECT_FALSE(overflow.status().ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kBudgetExceeded);
  std::vector<data::Instance> dbs;
  EXPECT_FALSE(overflow.Next(&dbs));  // yields nothing instead of garbage

  PseudoDomain small = BuildPseudoDomain(*comp, {}, 7);  // 7^2 = 49 <= 63
  DatabaseEnumerator fits(&*comp, small.domain, small.fresh,
                          /*iso_reduce=*/true);
  EXPECT_TRUE(fits.status().ok());

  // The engine propagates the error instead of reporting a bogus verdict.
  auto property = ltl::Property::Parse("G true");
  ASSERT_TRUE(property.ok());
  VerifierOptions options;
  options.fresh_domain_size = 9;
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded);
}

TEST(DatabaseEnumerator, ResetRestarts) {
  auto comp = spec::ParseComposition(R"(
peer P { database { r(x); } rules { } }
)");
  ASSERT_TRUE(comp.ok());
  PseudoDomain pd = BuildPseudoDomain(*comp, {}, 1);
  DatabaseEnumerator e(&*comp, pd.domain, pd.fresh, false);
  std::vector<data::Instance> dbs;
  size_t first = 0;
  while (e.Next(&dbs)) ++first;
  e.Reset();
  size_t second = 0;
  while (e.Next(&dbs)) ++second;
  EXPECT_EQ(first, second);
}

TEST(DomainBound, GrowsWithSpecWidth) {
  auto small = spec::ParseComposition(R"(
peer P { database { d(x); } input { i(x); } rules { options i(x) :- d(x); } }
)");
  auto wide = spec::ParseComposition(R"(
peer P {
  database { d(x); }
  input { i(x, y, z); j(x); }
  rules { options i(x, y, z) :- d(x) and d(y) and d(z);
          options j(x) :- d(x); }
}
)");
  ASSERT_TRUE(small.ok() && wide.ok());
  auto property = ltl::Property::Parse("G true");
  ASSERT_TRUE(property.ok());
  const size_t vars = property->closure_variables().size();
  EXPECT_LT(SufficientFreshDomainSize(*small, vars, 1),
            SufficientFreshDomainSize(*wide, vars, 1));
  // Queue bounds contribute one live slot per flat-queue message.
  auto queued = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(queued.ok());
  EXPECT_LT(SufficientFreshDomainSize(*queued, vars, 1),
            SufficientFreshDomainSize(*queued, vars, 4));
}

/// Differential property: isomorphism reduction must not change verdicts,
/// only the number of databases checked.
class IsoReductionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IsoReductionTest, SameVerdictWithAndWithoutReduction) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  auto property = ltl::Property::Parse(GetParam());
  ASSERT_TRUE(property.ok()) << property.status();

  VerifierOptions with;
  with.fresh_domain_size = 2;
  with.iso_reduction = true;
  VerifierOptions without = with;
  without.iso_reduction = false;

  Verifier v1(&*comp, with);
  Verifier v2(&*comp, without);
  auto r1 = v1.Verify(*property);
  auto r2 = v2.Verify(*property);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r1->holds, r2->holds);
  EXPECT_LT(r1->stats.databases_checked, r2->stats.databases_checked);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, IsoReductionTest,
    ::testing::Values(
        "forall x: G(Requester.got(x) -> exists y: Requester.item(y) and "
        "x = y)",
        "G(not (exists x: Requester.got(x) and not Requester.item(x)))",
        "forall x: G(Requester.ask(x) -> Requester.item(x))",
        "G(Requester.empty_resp or not Requester.empty_resp)"));

/// Differential oracle: G(leaf) properties verified as HOLDS must hold at
/// every snapshot of random simulated runs over the same database.
class SimulatorOracleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SimulatorOracleTest, VerifiedInvariantsHoldAlongRandomRuns) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  std::string leaf_text = GetParam();
  auto property = ltl::Property::Parse("G(" + leaf_text + ")");
  ASSERT_TRUE(property.ok()) << property.status();

  VerifierOptions options;
  options.fresh_domain_size = 1;
  options.fixed_databases =
      std::vector<NamedDatabase>{{{"item", {{"a"}, {"b"}}}}, {}};
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->holds) << "oracle premise: property must hold";

  // Re-evaluate the leaf on every snapshot of random runs.
  auto leaf = ltl::Property::Parse(leaf_text);
  ASSERT_TRUE(leaf.ok());
  ASSERT_EQ(leaf->formula()->kind(), ltl::LtlKind::kLeaf);
  Interner interner = comp->BuildInterner();
  std::vector<data::Instance> dbs;
  dbs.emplace_back(&comp->peers()[0].database_schema());
  dbs.emplace_back(&comp->peers()[1].database_schema());
  dbs[0].relation("item").Insert({interner.Intern("a")});
  dbs[0].relation("item").Insert({interner.Intern("b")});
  fo::Evaluator evaluator(&interner);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    runtime::Simulator sim(&*comp, dbs, &interner, runtime::RunOptions{},
                           seed);
    auto trace = sim.Run(60);
    ASSERT_TRUE(trace.ok());
    for (const runtime::Snapshot& snap : *trace) {
      fo::MapStructure view = runtime::BuildPropertyStructure(
          *comp, dbs, snap, sim.generator().domain());
      auto value =
          evaluator.EvaluateSentence(leaf->formula()->leaf(), view);
      ASSERT_TRUE(value.ok()) << value.status();
      EXPECT_TRUE(*value) << "verified invariant violated on a simulated "
                             "run (seed "
                          << seed << "): " << leaf_text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Invariants, SimulatorOracleTest,
    ::testing::Values(
        "forall x: Requester.got(x) -> (exists y: Requester.item(y) and "
        "x = y)",
        "forall x: Requester.ask(x) -> Requester.item(x)",
        "not (exists x: Responder.req(x) and not Requester.item(x))"));

/// Counterexample sanity: the returned lasso is a run — every consecutive
/// pair of snapshots is connected by a legal transition (compared on the
/// state, input and channel components; normalized bookkeeping is ignored).
TEST(Counterexamples, LassoIsALegalRun) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  auto property = ltl::Property::Parse(
      "G(not (exists x: Requester.got(x)))");  // refuted
  ASSERT_TRUE(property.ok());
  VerifierOptions options;
  options.fresh_domain_size = 1;
  options.fixed_databases =
      std::vector<NamedDatabase>{{{"item", {{"a"}}}}, {}};
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->holds);
  ASSERT_TRUE(result->counterexample.has_value());
  const auto& lasso = result->counterexample->lasso;

  // Rebuild the transition generator over the same database and domain.
  const Interner& interner = verifier.interner();
  std::vector<data::Instance> dbs = result->counterexample->databases;
  runtime::TransitionGenerator generator(&*comp, dbs, verifier.domain(),
                                         &interner, options.run);

  auto core_equal = [](const runtime::Snapshot& a,
                       const runtime::Snapshot& b) {
    if (a.channels != b.channels) return false;
    for (size_t p = 0; p < a.peers.size(); ++p) {
      if (!(a.peers[p].state == b.peers[p].state)) return false;
      if (!(a.peers[p].input == b.peers[p].input)) return false;
    }
    return true;
  };

  std::vector<runtime::Snapshot> run = lasso.prefix;
  run.insert(run.end(), lasso.cycle.begin() + 1, lasso.cycle.end());
  ASSERT_GE(run.size(), 2u);
  for (size_t i = 0; i + 1 < run.size(); ++i) {
    auto succ = generator.Successors(run[i]);
    ASSERT_TRUE(succ.ok());
    bool found = false;
    for (const runtime::Snapshot& s : *succ) {
      if (core_equal(s, run[i + 1])) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no legal transition from snapshot " << i;
  }
}

/// Budget behavior: tiny product budgets yield BudgetExceeded-flavored
/// bounded verdicts instead of wrong answers.
TEST(Budgets, TinyBudgetIsReportedNotWrong) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  auto property = ltl::Property::Parse(
      "forall x: G(Requester.got(x) -> exists y: Requester.item(y) and "
      "x = y)");
  ASSERT_TRUE(property.ok());
  VerifierOptions options;
  options.fresh_domain_size = 1;
  options.fixed_databases =
      std::vector<NamedDatabase>{{{"item", {{"a"}, {"b"}}}}, {}};
  options.budget.max_states = 5;
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok()) << result.status();
  if (result->holds) {
    EXPECT_FALSE(result->regime.ok());  // bounded verdict flagged
    EXPECT_FALSE(result->complete);
  }
}

}  // namespace
}  // namespace wsv::verifier
