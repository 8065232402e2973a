#include <gtest/gtest.h>

#include "automata/buchi.h"
#include "automata/complement.h"
#include "automata/emptiness.h"
#include "automata/gpvw.h"
#include "automata/pltl.h"

namespace wsv::automata {
namespace {

/// Runs an automaton on an ultimately-periodic word prefix(cycle)^omega and
/// decides acceptance by explicit product exploration: states are (automaton
/// state, word position mod lasso), and acceptance needs an accepting state
/// in a reachable cycle of the product. This is the test oracle for GPVW
/// and complementation.
bool AcceptsLasso(const BuchiAutomaton& automaton,
                  const std::vector<std::vector<bool>>& prefix,
                  const std::vector<std::vector<bool>>& cycle) {
  // Build the product of the automaton with the lasso word structure.
  size_t total = prefix.size() + cycle.size();
  auto letter_at = [&](size_t pos) -> const std::vector<bool>& {
    if (pos < prefix.size()) return prefix[pos];
    return cycle[(pos - prefix.size()) % cycle.size()];
  };
  auto next_pos = [&](size_t pos) -> size_t {
    size_t next = pos + 1;
    if (next >= total) next = prefix.size();  // wrap inside the cycle
    return next;
  };

  // Product automaton as a plain BA: state = q * total + pos; the letter
  // consumed from `pos` is letter_at(pos).
  BuchiAutomaton product(automaton.num_props());
  for (size_t i = 0; i < automaton.num_states() * total; ++i) {
    product.AddState();
  }
  // Virtual initial: add real initials at position 0 via an extra state.
  StateId init = product.AddState();
  product.AddInitial(init);
  std::vector<StateId> accepting;
  for (size_t q = 0; q < automaton.num_states(); ++q) {
    for (size_t pos = 0; pos < total; ++pos) {
      StateId from = static_cast<StateId>(q * total + pos);
      for (const BuchiTransition& t :
           automaton.transitions_from(static_cast<StateId>(q))) {
        if (!t.guard->Eval(letter_at(pos))) continue;
        product.AddTransition(
            from, static_cast<StateId>(t.to * total + next_pos(pos)),
            PropExpr::True());
      }
      if (automaton.IsAccepting(static_cast<StateId>(q)) &&
          pos >= prefix.size()) {
        accepting.push_back(from);
      }
    }
  }
  for (StateId q0 : automaton.initial_states()) {
    for (const BuchiTransition& t : automaton.transitions_from(q0)) {
      if (!t.guard->Eval(letter_at(0))) continue;
      product.AddTransition(
          init, static_cast<StateId>(t.to * total + next_pos(0)),
          PropExpr::True());
    }
  }
  product.AddAcceptingSet(std::move(accepting));
  return FindAcceptingLasso(product).has_value();
}

std::vector<bool> L(std::initializer_list<int> props) {
  std::vector<bool> letter(4, false);
  for (int p : props) letter[p] = true;
  return letter;
}

class GpvwTest : public ::testing::Test {
 protected:
  PLtlManager m_;

  BuchiAutomaton Translate(PRef f) {
    auto result = TranslateToBuchi(m_, f, 4);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(*result);
  }
};

TEST_F(GpvwTest, GloballyP) {
  BuchiAutomaton a = Translate(m_.Globally(m_.Lit(0, false)));
  EXPECT_FALSE(AcceptsLasso(a, {}, {L({1})}));
  EXPECT_TRUE(AcceptsLasso(a, {}, {L({0})}));
  EXPECT_FALSE(AcceptsLasso(a, {L({0})}, {L({})}));
  EXPECT_TRUE(AcceptsLasso(a, {L({0})}, {L({0, 1})}));
}

TEST_F(GpvwTest, FinallyP) {
  BuchiAutomaton a = Translate(m_.Finally(m_.Lit(0, false)));
  EXPECT_TRUE(AcceptsLasso(a, {L({}), L({0})}, {L({})}));
  EXPECT_FALSE(AcceptsLasso(a, {L({})}, {L({1})}));
  EXPECT_TRUE(AcceptsLasso(a, {}, {L({}), L({0})}));
}

TEST_F(GpvwTest, Until) {
  PRef f = m_.Until(m_.Lit(0, false), m_.Lit(1, false));
  BuchiAutomaton a = Translate(f);
  EXPECT_TRUE(AcceptsLasso(a, {L({0}), L({0}), L({1})}, {L({})}));
  EXPECT_TRUE(AcceptsLasso(a, {L({1})}, {L({})}));
  // p holds forever but q never arrives: not accepted.
  EXPECT_FALSE(AcceptsLasso(a, {}, {L({0})}));
  // p fails before q arrives: not accepted.
  EXPECT_FALSE(AcceptsLasso(a, {L({0}), L({}), L({1})}, {L({})}));
}

TEST_F(GpvwTest, Release) {
  PRef f = m_.Release(m_.Lit(0, false), m_.Lit(1, false));
  BuchiAutomaton a = Translate(f);
  // q forever: accepted.
  EXPECT_TRUE(AcceptsLasso(a, {}, {L({1})}));
  // q until p&q, then free: accepted.
  EXPECT_TRUE(AcceptsLasso(a, {L({1}), L({0, 1})}, {L({})}));
  // q fails before p arrives: rejected.
  EXPECT_FALSE(AcceptsLasso(a, {L({1}), L({})}, {L({0, 1})}));
  // q fails exactly when p arrives (release is inclusive): rejected.
  EXPECT_FALSE(AcceptsLasso(a, {L({1}), L({0})}, {L({})}));
}

TEST_F(GpvwTest, NextChain) {
  PRef f = m_.Next(m_.Next(m_.Lit(0, false)));
  BuchiAutomaton a = Translate(f);
  EXPECT_TRUE(AcceptsLasso(a, {L({}), L({}), L({0})}, {L({})}));
  EXPECT_FALSE(AcceptsLasso(a, {L({0}), L({0}), L({})}, {L({})}));
}

TEST_F(GpvwTest, GloballyFinally) {
  PRef f = m_.Globally(m_.Finally(m_.Lit(0, false)));
  BuchiAutomaton a = Translate(f);
  EXPECT_TRUE(AcceptsLasso(a, {}, {L({}), L({0})}));
  EXPECT_FALSE(AcceptsLasso(a, {L({0}), L({0})}, {L({})}));
  EXPECT_TRUE(AcceptsLasso(a, {}, {L({0})}));
}

TEST_F(GpvwTest, NegationDuality) {
  // not(G p) == F(not p): both automata must agree on sample words.
  BuchiAutomaton not_gp = Translate(m_.Negate(m_.Globally(m_.Lit(0, false))));
  BuchiAutomaton f_np = Translate(m_.Finally(m_.Lit(0, true)));
  std::vector<std::pair<std::vector<std::vector<bool>>,
                        std::vector<std::vector<bool>>>>
      samples = {
          {{}, {L({0})}},
          {{}, {L({})}},
          {{L({0})}, {L({})}},
          {{L({})}, {L({0})}},
      };
  for (const auto& [prefix, cycle] : samples) {
    EXPECT_EQ(AcceptsLasso(not_gp, prefix, cycle),
              AcceptsLasso(f_np, prefix, cycle));
  }
}

TEST(Degeneralize, TwoAcceptanceSets) {
  // States 0 and 1, alternating; F0 = {0}, F1 = {1}: the alternating run is
  // accepting, the self-loop on 0 alone (if it existed) wouldn't be.
  BuchiAutomaton g(1);
  StateId s0 = g.AddState();
  StateId s1 = g.AddState();
  g.AddInitial(s0);
  g.AddTransition(s0, s1, PropExpr::True());
  g.AddTransition(s1, s0, PropExpr::True());
  g.AddAcceptingSet({s0});
  g.AddAcceptingSet({s1});
  BuchiAutomaton plain = g.Degeneralize();
  EXPECT_EQ(plain.num_accepting_sets(), 1u);
  EXPECT_TRUE(FindAcceptingLasso(plain).has_value());
}

TEST(Degeneralize, UnsatisfiableSecondSet) {
  BuchiAutomaton g(1);
  StateId s0 = g.AddState();
  g.AddInitial(s0);
  g.AddTransition(s0, s0, PropExpr::True());
  g.AddAcceptingSet({s0});
  g.AddAcceptingSet({});  // never visited: language empty
  BuchiAutomaton plain = g.Degeneralize();
  EXPECT_FALSE(FindAcceptingLasso(plain).has_value());
}

TEST(Emptiness, LassoShape) {
  BuchiAutomaton a(1);
  StateId s0 = a.AddState();
  StateId s1 = a.AddState();
  StateId s2 = a.AddState();
  a.AddInitial(s0);
  a.AddTransition(s0, s1, PropExpr::True());
  a.AddTransition(s1, s2, PropExpr::True());
  a.AddTransition(s2, s1, PropExpr::True());
  a.AddAcceptingSet({s2});
  auto lasso = FindAcceptingLasso(a);
  ASSERT_TRUE(lasso.has_value());
  EXPECT_EQ(lasso->prefix.front(), s0);
  EXPECT_EQ(lasso->prefix.back(), lasso->cycle.front());
  EXPECT_EQ(lasso->cycle.front(), lasso->cycle.back());
}

TEST(Emptiness, UnsatisfiableGuardsCutEdges) {
  BuchiAutomaton a(1);
  StateId s0 = a.AddState();
  a.AddInitial(s0);
  a.AddTransition(s0, s0,
                  PropExpr::And(PropExpr::Lit(0),
                                PropExpr::Not(PropExpr::Lit(0))));
  a.AddAcceptingSet({s0});
  EXPECT_TRUE(IsEmptyLanguage(a));
}

TEST(Emptiness, FixedTruthsCutEdges) {
  // s0 -p0-> s1 (accepting, self-loop on not p1).
  BuchiAutomaton a(2);
  StateId s0 = a.AddState();
  StateId s1 = a.AddState();
  a.AddInitial(s0);
  a.AddTransition(s0, s1, PropExpr::Lit(0));
  a.AddTransition(s1, s1, PropExpr::Not(PropExpr::Lit(1)));
  a.AddAcceptingSet({s1});
  EXPECT_FALSE(IsEmptyLanguage(a));
  EXPECT_FALSE(IsEmptyLanguage(a, {-1, -1}));
  EXPECT_FALSE(IsEmptyLanguage(a, {1, 0}));
  EXPECT_TRUE(IsEmptyLanguage(a, {0, -1}));
  EXPECT_TRUE(IsEmptyLanguage(a, {-1, 1}));
  EXPECT_FALSE(IsEmptyLanguage(a, {1}));  // p1 past the end stays free
}

class ComplementTest : public ::testing::Test {
 protected:
  PLtlManager m_;

  BuchiAutomaton Translate(PRef f) {
    auto result = TranslateToBuchi(m_, f, 4);
    EXPECT_TRUE(result.ok());
    return std::move(*result);
  }
};

TEST_F(ComplementTest, ComplementOfGloballyP) {
  BuchiAutomaton gp = Translate(m_.Globally(m_.Lit(0, false)));
  auto comp = ComplementBuchi(gp);
  ASSERT_TRUE(comp.ok()) << comp.status();
  // Complement accepts exactly the words with some !p position.
  EXPECT_FALSE(AcceptsLasso(*comp, {}, {L({0})}));
  EXPECT_TRUE(AcceptsLasso(*comp, {}, {L({})}));
  EXPECT_TRUE(AcceptsLasso(*comp, {L({0}), L({})}, {L({0})}));
}

TEST_F(ComplementTest, ComplementPartitionsWords) {
  // For several formulas and words: exactly one of A, complement(A) accepts.
  std::vector<PRef> formulas = {
      m_.Globally(m_.Lit(0, false)),
      m_.Finally(m_.Lit(1, false)),
      m_.Until(m_.Lit(0, false), m_.Lit(1, false)),
      m_.Globally(m_.Finally(m_.Lit(0, false))),
  };
  std::vector<std::pair<std::vector<std::vector<bool>>,
                        std::vector<std::vector<bool>>>>
      samples = {
          {{}, {L({0})}},
          {{}, {L({1})}},
          {{L({0})}, {L({1})}},
          {{L({0}), L({})}, {L({0, 1})}},
          {{}, {L({}), L({0})}},
      };
  for (PRef f : formulas) {
    BuchiAutomaton a = Translate(f);
    auto comp = ComplementBuchi(a);
    ASSERT_TRUE(comp.ok()) << comp.status();
    for (const auto& [prefix, cycle] : samples) {
      bool in_a = AcceptsLasso(a, prefix, cycle);
      bool in_comp = AcceptsLasso(*comp, prefix, cycle);
      EXPECT_NE(in_a, in_comp)
          << "word not partitioned for formula " << m_.ToString(f);
    }
  }
}

TEST(PLtlManager, HashConsing) {
  PLtlManager m;
  PRef a = m.Lit(0, false);
  PRef b = m.Lit(0, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.And(a, m.Lit(1, false)), m.And(b, m.Lit(1, false)));
  EXPECT_NE(m.And(a, m.Lit(1, false)), m.Or(a, m.Lit(1, false)));
}

TEST(PLtlManager, NegateIsInvolutive) {
  PLtlManager m;
  PRef f = m.Until(m.Lit(0, false), m.And(m.Lit(1, true), m.Lit(2, false)));
  EXPECT_EQ(m.Negate(m.Negate(f)), f);
}

TEST(PropExpr, PartialEval) {
  PropExprPtr e = PropExpr::Or(PropExpr::And(PropExpr::Lit(0),
                                             PropExpr::Lit(1)),
                               PropExpr::Not(PropExpr::Lit(2)));
  std::vector<int8_t> truths{1, -1, 1};
  PropExprPtr r = PropExpr::PartialEval(e, truths);
  // (true & p1) | !true  ==  p1.
  EXPECT_EQ(r->kind(), PropExpr::Kind::kLit);
  EXPECT_EQ(r->prop(), 1u);
  truths = {0, -1, 0};
  r = PropExpr::PartialEval(e, truths);
  EXPECT_EQ(r->kind(), PropExpr::Kind::kTrue);  // false | !false
}

}  // namespace
}  // namespace wsv::automata
