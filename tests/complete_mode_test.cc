// The sound-AND-complete regime (Theorem 3.4): on a database-free
// specification the sufficient pseudo-domain bound is small enough to run,
// and the verifier reports verdicts as complete. Also demonstrates the
// infinite-domain semantics: user inputs range over the whole (unbounded)
// value domain, represented by fresh pseudo-domain elements.

#include <gtest/gtest.h>

#include "ltl/property.h"
#include "spec/parser.h"
#include "verifier/domain_bound.h"
#include "verifier/verifier.h"

namespace wsv::verifier {
namespace {

// No database: the user freely invents values (options body `true` ranges
// over the whole domain — the paper's infinite-state aspect).
constexpr char kFreeInput[] = R"(
peer P {
  input { i(x); }
  state { s(x); }
  rules {
    options i(x) :- true;
    insert s(x) :- i(x);
  }
}
)";

TEST(CompleteMode, SufficientBoundYieldsCompleteVerdict) {
  auto comp = spec::ParseComposition(kFreeInput);
  ASSERT_TRUE(comp.ok()) << comp.status();
  auto property = ltl::Property::Parse(
      "forall x: G(P.s(x) -> F P.s(x))");  // trivially true
  ASSERT_TRUE(property.ok());

  VerifierOptions options;
  options.fresh_domain_size = 0;  // select the sufficient bound
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->holds);
  EXPECT_TRUE(result->regime.ok()) << result->regime;
  EXPECT_TRUE(result->complete)
      << "database-free spec at the sufficient bound must be complete";
}

TEST(CompleteMode, BoundedDomainIsFlaggedIncomplete) {
  auto comp = spec::ParseComposition(kFreeInput);
  ASSERT_TRUE(comp.ok());
  auto property = ltl::Property::Parse("G true");
  ASSERT_TRUE(property.ok());
  VerifierOptions options;
  options.fresh_domain_size = 1;  // below the sufficient bound
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->holds);
  EXPECT_FALSE(result->complete);
}

TEST(InfiniteDomain, UsersInventValuesBeyondAnyDatabase) {
  // The state can hold values that exist nowhere else — they enter through
  // the input. With one fresh element, "some value is eventually stored"
  // is refutable... inverted: "nothing is ever stored" must be refuted by
  // a run whose input carries a fresh pseudo-domain element.
  auto comp = spec::ParseComposition(kFreeInput);
  ASSERT_TRUE(comp.ok());
  auto property = ltl::Property::Parse("G(not (exists x: P.i(x) and P.s(x)))");
  ASSERT_TRUE(property.ok());
  VerifierOptions options;
  options.fresh_domain_size = 1;
  Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->holds);
  ASSERT_TRUE(result->counterexample.has_value());
  // The witness run stores the fresh element "#1".
  bool fresh_stored = false;
  SymbolId fresh = verifier.interner().Lookup("#1");
  ASSERT_NE(fresh, kInvalidSymbol);
  auto all = result->counterexample->lasso.prefix;
  all.insert(all.end(), result->counterexample->lasso.cycle.begin(),
             result->counterexample->lasso.cycle.end());
  for (const runtime::Snapshot& snap : all) {
    if (snap.peers[0].state.relation("s").Contains({fresh})) {
      fresh_stored = true;
    }
  }
  EXPECT_TRUE(fresh_stored);
}

TEST(InfiniteDomain, SufficientBoundCoversInputWidths) {
  auto comp = spec::ParseComposition(kFreeInput);
  ASSERT_TRUE(comp.ok());
  auto p0 = ltl::Property::Parse("G true");
  auto p2 = ltl::Property::Parse("forall x, y: G(P.s(x) -> P.s(y) or true)");
  ASSERT_TRUE(p0.ok() && p2.ok());
  // Closure variables enlarge the required fresh domain.
  EXPECT_LT(
      SufficientFreshDomainSize(*comp, p0->closure_variables().size(), 1),
      SufficientFreshDomainSize(*comp, p2->closure_variables().size(), 1));
}

}  // namespace
}  // namespace wsv::verifier
