// Equivalence tests for verifier::LeafCache's footprint memo: every cell the
// cache serves — sealed serially, sealed on four lanes, or filled lazily on
// a budget-cut partial graph — must equal a direct evaluation of the leaf on
// the snapshot's property structure, and the memo's counters must add up.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "fo/eval.h"
#include "fo/parser.h"
#include "runtime/transition.h"
#include "spec/library.h"
#include "verifier/engine.h"
#include "verifier/snapshot_graph.h"

namespace wsv::verifier {
namespace {

/// Leaves of the loan composition (Figure 1): the complement-heavy leaves
/// of the Example 3.2 displayed policy and the letter-origin check, the
/// E-Fig1 policy and property (11) leaves, 0-ary run propositions, and
/// both queue views (f(q) at the receiver, l(q) at the sender).
const char* const kLeaves[] = {
    "not Officer.letter(id, name, loan, \"approved\")",
    "exists ssn: CreditAgency.rating(ssn, \"excellent\") and "
    "Officer.customer(id, ssn, name)",
    "Manager.decision(id, \"approved\")",
    "forall w: Customer.wants(id, w) -> w = loan",
    "Officer.application(id, loan) or "
    "not (exists s: Officer.customer(id, s, name))",
    "Officer.letter(id, name, loan, \"approved\")",
    "Officer.decision(id, \"approved\")",
    "exists s: Officer.rating(s, \"excellent\")",
    "Officer.apply(id, l) and Officer.customer(id, ssn, name)",
    "received_rating",
    "move_Officer and not Officer.empty_apply",
    "CreditAgency.rating(s, c)",
    "Customer.wants(id, loan)",  // database only: one footprint
};

/// The loan composition on one pinned database with its explored graph.
struct LoanGraph {
  std::optional<spec::Composition> comp;
  PseudoDomain pd;
  std::unique_ptr<runtime::TransitionGenerator> generator;
  std::unique_ptr<SnapshotGraph> graph;
  std::vector<fo::FormulaPtr> leaves;

  /// Explores up to `max_snapshots`; returns whether the graph completed.
  bool Build(SnapshotNormalization normalization, size_t max_snapshots) {
    auto parsed = spec::library::LoanComposition();
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    comp.emplace(std::move(*parsed));
    std::set<std::string> constants;
    for (const char* text : kLeaves) {
      auto leaf = fo::ParseFormula(text);
      EXPECT_TRUE(leaf.ok()) << text << ": " << leaf.status();
      auto spelled = (*leaf)->Constants();
      constants.insert(spelled.begin(), spelled.end());
      leaves.push_back(*leaf);
    }
    pd = BuildPseudoDomain(*comp, constants, /*fresh_count=*/1);
    std::vector<NamedDatabase> named(4);
    named[0]["wants"] = {{"c1", "l1"}};
    named[1]["customer"] = {{"c1", "s1", "ann"}};
    named[2]["client"] = {{"c1", "s1", "ann"}};
    named[3]["creditRecord"] = {{"s1", "excellent"}};
    auto dbs = MaterializeDatabases(*comp, named, pd.interner, pd.domain);
    EXPECT_TRUE(dbs.ok()) << dbs.status();
    generator = std::make_unique<runtime::TransitionGenerator>(
        &*comp, *dbs, pd.domain, &pd.interner, runtime::RunOptions{});
    graph = std::make_unique<SnapshotGraph>(generator.get(),
                                            std::move(normalization));
    auto complete = graph->ExploreAll(max_snapshots);
    EXPECT_TRUE(complete.ok()) << complete.status();
    return complete.ok() && *complete;
  }
};

/// Every cell of every cache equals Evaluator::Evaluate on Structure(sid)
/// (evaluated once per snapshot and leaf, then compared against each
/// cache).
void ExpectCellsMatchDirectEvaluation(const LoanGraph& g,
                                      const std::vector<LeafCache*>& caches) {
  fo::Evaluator evaluator(&g.pd.interner);
  for (SnapshotId sid = 0; sid < g.graph->size(); ++sid) {
    std::vector<const fo::ValuationSet* const*> rows;
    for (LeafCache* cache : caches) {
      auto row = cache->GetAll(sid);
      ASSERT_TRUE(row.ok()) << row.status();
      rows.push_back(*row);
    }
    const fo::MapStructure structure = g.graph->Structure(sid);
    for (size_t leaf = 0; leaf < g.leaves.size(); ++leaf) {
      auto expected = evaluator.Evaluate(g.leaves[leaf], structure);
      ASSERT_TRUE(expected.ok()) << expected.status();
      for (size_t c = 0; c < caches.size(); ++c) {
        const fo::ValuationSet* cell = rows[c][leaf];
        ASSERT_NE(cell, nullptr);
        ASSERT_EQ(cell->variables(), expected->variables());
        ASSERT_EQ(cell->rows(), expected->rows())
            << "cache " << c << ", snapshot " << sid << ", leaf "
            << kLeaves[leaf];
      }
    }
  }
}

void ExpectCountersAddUp(const LeafCache& cache, size_t num_leaves) {
  EXPECT_EQ(cache.leaf_evals() + cache.footprint_hits(),
            cache.misses() * num_leaves);
  size_t distinct = 0;
  for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
    distinct += cache.footprints(leaf);
  }
  EXPECT_EQ(cache.leaf_evals(), distinct);
}

/// Full graph, sealed three ways: serially, on four lanes, and on four
/// lanes after some snapshots were read lazily. The mover tag and event
/// flags are normalized away to keep the graph near 10k snapshots (the
/// run propositions then read constant parts, and the queue-state
/// proposition still varies).
TEST(LeafCacheEquivalence, SealedCellsMatchDirectEvaluationAtJobs1And4) {
  SnapshotNormalization normalization;
  normalization.keep_mover = false;
  normalization.keep_flags = false;
  LoanGraph g;
  ASSERT_TRUE(g.Build(normalization, 1'000'000));
  const size_t n = g.graph->size();
  const size_t num_leaves = g.leaves.size();

  LeafCache serial(g.graph.get(), g.leaves, &g.pd.interner);
  ASSERT_TRUE(serial.SealAndPopulate().ok());
  ThreadPool pool(3);
  LeafCache parallel(g.graph.get(), g.leaves, &g.pd.interner);
  ASSERT_TRUE(parallel.SealAndPopulate(&pool, 4).ok());
  LeafCache lazy_first(g.graph.get(), g.leaves, &g.pd.interner);
  for (SnapshotId sid = 0; sid < n; sid += 7) {
    ASSERT_TRUE(lazy_first.GetAll(sid).ok());
  }
  ASSERT_TRUE(lazy_first.SealAndPopulate(&pool, 4).ok());

  for (const LeafCache* cache : {&serial, &parallel, &lazy_first}) {
    EXPECT_EQ(cache->misses(), n);
    ExpectCountersAddUp(*cache, num_leaves);
  }
  // Footprint ids and counters do not depend on the lane count.
  EXPECT_EQ(parallel.leaf_evals(), serial.leaf_evals());
  EXPECT_EQ(parallel.footprint_hits(), serial.footprint_hits());
  for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
    EXPECT_EQ(parallel.footprints(leaf), serial.footprints(leaf));
    EXPECT_EQ(lazy_first.footprints(leaf), serial.footprints(leaf));
    // The memo shares results: far fewer footprints than snapshots.
    EXPECT_LT(serial.footprints(leaf) * 100, n) << kLeaves[leaf];
  }
  EXPECT_EQ(serial.footprints(num_leaves - 1), 1u);  // database only

  ExpectCellsMatchDirectEvaluation(g, {&serial, &parallel, &lazy_first});

  // The truth a row's signature fixes equals the fold over every
  // snapshot's cell: 1 iff the row is in all of them, 0 iff in none. The
  // footprint ids do not depend on the lane count, so neither do the bits.
  const std::vector<data::Value> domain(g.pd.domain.values().begin(),
                                        g.pd.domain.values().end());
  size_t fixed = 0;
  size_t varying = 0;
  for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
    SCOPED_TRACE(kLeaves[leaf]);
    const size_t arity = serial.LeafVariables(leaf).size();
    data::Relation ever(arity);
    data::Relation always = ever;
    for (SnapshotId sid = 0; sid < n; ++sid) {
      const data::Relation& rows = (*serial.GetAll(sid))[leaf]->rows();
      ever = ever.Union(rows);
      always = sid == 0 ? rows : always.Intersection(rows);
    }
    std::vector<size_t> digits(arity, 0);
    for (bool more = true; more;) {
      std::vector<data::Value> values;
      for (size_t d : digits) values.push_back(domain[d]);
      const data::Tuple row(std::move(values));
      const int8_t expected = always.Contains(row) ? 1
                              : ever.Contains(row) ? -1
                                                   : 0;
      std::string serial_bits;
      std::string parallel_bits;
      ASSERT_EQ(serial.AppendSignature(leaf, row, &serial_bits), expected)
          << row.ToString(g.pd.interner);
      ASSERT_EQ(parallel.AppendSignature(leaf, row, &parallel_bits),
                expected);
      ASSERT_EQ(serial_bits.size(), (serial.footprints(leaf) + 7) / 8);
      ASSERT_EQ(parallel_bits, serial_bits);
      ++(expected >= 0 ? fixed : varying);
      more = false;
      for (size_t& d : digits) {
        if (++d < domain.size()) {
          more = true;
          break;
        }
        d = 0;
      }
    }
  }
  EXPECT_GT(fixed, 0u);
  EXPECT_GT(varying, 0u);
  // A leaf that reads no snapshot part has one footprint.
  for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
    if (serial.ReadsNoPart(leaf)) {
      EXPECT_EQ(serial.footprints(leaf), 1u) << kLeaves[leaf];
    }
  }
  EXPECT_TRUE(serial.ReadsNoPart(num_leaves - 1));
  EXPECT_FALSE(serial.ReadsNoPart(0));
}

/// A budget-cut graph stays lazy: GetAll evaluates through the same memo.
/// Nothing is normalized, so the mover and received_* propositions vary.
TEST(LeafCacheEquivalence, LazyCellsOnPartialGraphMatchDirectEvaluation) {
  LoanGraph g;
  ASSERT_FALSE(g.Build(SnapshotNormalization{}, 2000));
  LeafCache cache(g.graph.get(), g.leaves, &g.pd.interner);
  ExpectCellsMatchDirectEvaluation(g, {&cache});
  EXPECT_EQ(cache.misses(), g.graph->size());
  ExpectCountersAddUp(cache, g.leaves.size());
  // The 0-ary leaves really vary here: received_rating, move_Officer.
  for (size_t leaf : {9, 10}) {
    EXPECT_GE(cache.footprints(leaf), 2u) << kLeaves[leaf];
  }
  // Reading again is all hits and evaluates nothing.
  const size_t evals = cache.leaf_evals();
  ExpectCellsMatchDirectEvaluation(g, {&cache});
  EXPECT_EQ(cache.misses(), g.graph->size());
  EXPECT_EQ(cache.hits(), g.graph->size());
  EXPECT_EQ(cache.leaf_evals(), evals);
}

}  // namespace
}  // namespace wsv::verifier
