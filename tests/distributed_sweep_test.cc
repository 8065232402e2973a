// Differential testing of the sharded sweep stack: for randomized
// (spec, property, options) configurations, one multi-threaded sweep and a
// K-shard --db-range decomposition merged by the merge library must agree
// on verdict, witness indices and coverage — the contract that makes
// distributed sweeps (tools/shard_sweep.py + wsvc-merge) trustworthy.
//
// Also pins the absolute-index semantics of max_databases across resume
// (the ROADMAP-noted counting bug) and the valuation-range analogue for
// pinned-database runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ltl/property.h"
#include "spec/parser.h"
#include "verifier/checkpoint.h"
#include "verifier/merge.h"
#include "verifier/verifier.h"

namespace wsv::verifier {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

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

constexpr char kShop[] = R"(
peer Shop {
  database {
    product(pId, price);
    inStock(pId);
  }
  input {
    view(pId);
    addToCart(pId);
    checkout();
  }
  state {
    viewed(pId);
    cart(pId);
    ordered(pId);
  }
  action {
    ship(pId);
    confirm(pId);
  }
  rules {
    options view(p) :- exists price: product(p, price);
    options addToCart(p) :- prev_view(p) and inStock(p);
    options checkout() :- true;
    insert viewed(p) :- view(p);
    insert cart(p) :- addToCart(p);
    delete cart(p) :- cart(p) and checkout();
    insert ordered(p) :- cart(p) and checkout();
    action ship(p) :- cart(p) and checkout() and inStock(p);
    action confirm(p) :- cart(p) and checkout();
  }
}
composition ShopOnly { peers Shop; }
)";

struct SpecFamily {
  const char* name;
  const char* text;
  std::vector<const char*> properties;  // mix of holding and violated
};

const std::vector<SpecFamily>& Families() {
  static const std::vector<SpecFamily> families = {
      {"pingpong",
       kPingPong,
       {"forall x: G(Requester.got(x) -> Requester.item(x))",
        "forall x: G(not Requester.got(x))", "G(true)"}},
      {"shop",
       kShop,
       {"forall p: G(Shop.ordered(p) -> Shop.viewed(p))",
        "G(not (exists p: Shop.ordered(p)))", "G(true)"}},
  };
  return families;
}

VerificationResult RunVerifier(const spec::Composition& comp,
                       const std::string& property_text,
                       VerifierOptions options) {
  auto property = ltl::Property::Parse(property_text);
  EXPECT_TRUE(property.ok()) << property.status();
  Verifier verifier(&comp, std::move(options));
  auto result = verifier.Verify(*property);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(*result);
}

/// What wsvc-merge reconstructs from a shard's verdict JSON, built here
/// directly from the library result (the JSON encode/decode path has its
/// own tests in merge_test.cc).
ShardReport ToShard(const VerificationResult& r, const std::string& source) {
  ShardReport s;
  s.source = source;
  s.fingerprint = "differential";
  s.holds = r.holds;
  s.has_witness = r.counterexample.has_value();
  if (s.has_witness) {
    s.witness_db_index = r.counterexample->database_index;
    s.witness_valuation_index = r.counterexample->valuation_index;
  }
  s.covered = r.coverage.covered;
  s.unit = r.coverage.unit;
  s.range_lo = r.coverage.range_lo;
  s.range_hi = r.coverage.range_hi;
  s.stop_reason = StopReasonName(r.coverage.stop_reason);
  for (size_t index : r.coverage.failed_db_indices) {
    s.failed_indices.push_back(index);
  }
  return s;
}

/// One randomized configuration: a single jobs-N sweep and a random K-way
/// range decomposition must merge to the identical verdict.
void CheckConfig(const SpecFamily& family, const char* property,
                 size_t fresh, size_t single_jobs, size_t shard_count,
                 std::mt19937* rng) {
  SCOPED_TRACE(std::string(family.name) + " | " + property +
               " | fresh=" + std::to_string(fresh) +
               " | shards=" + std::to_string(shard_count));
  auto comp = spec::ParseComposition(family.text);
  ASSERT_TRUE(comp.ok()) << comp.status();

  VerifierOptions base;
  base.fresh_domain_size = fresh;

  VerifierOptions count = base;
  count.count_only = true;
  const size_t total = RunVerifier(*comp, property, count).enumeration_count;
  ASSERT_GT(total, 0u);

  VerifierOptions single = base;
  single.jobs = single_jobs;
  const VerificationResult baseline = RunVerifier(*comp, property, single);

  // Random contiguous cuts; the final shard is unbounded so exactly one
  // shard attests enumerator exhaustion, like shard_sweep.py's last slice.
  std::vector<size_t> cuts = {0};
  std::uniform_int_distribution<size_t> pick(0, total);
  for (size_t i = 0; i + 1 < shard_count; ++i) cuts.push_back(pick(*rng));
  std::sort(cuts.begin(), cuts.end());
  std::vector<ShardReport> shards;
  for (size_t i = 0; i < cuts.size(); ++i) {
    VerifierOptions shard = base;
    shard.range_lo = cuts[i];
    shard.range_hi =
        i + 1 < cuts.size() ? cuts[i + 1] : static_cast<size_t>(-1);
    shard.jobs = 1 + (*rng)() % 2;
    shards.push_back(ToShard(RunVerifier(*comp, property, shard),
                             "shard" + std::to_string(i)));
  }

  auto merged = MergeShards(shards);
  ASSERT_TRUE(merged.ok()) << merged.status();

  if (baseline.counterexample.has_value()) {
    EXPECT_EQ(merged->verdict, "violated");
    EXPECT_TRUE(merged->has_witness);
    EXPECT_EQ(merged->witness_db_index,
              baseline.counterexample->database_index);
    EXPECT_EQ(merged->witness_valuation_index,
              baseline.counterexample->valuation_index);
  } else {
    EXPECT_EQ(merged->verdict, "holds");
    EXPECT_TRUE(merged->complete);
    EXPECT_EQ(merged->covered, baseline.coverage.covered);
    EXPECT_EQ(merged->covered,
              (std::vector<IndexInterval>{{0, total}}));
  }
}

TEST(DistributedSweepDifferential, RandomizedShardingMatchesSingleSweep) {
  std::mt19937 rng(20260805);
  const auto& families = Families();
  int config = 0;
  // ~20 randomized configurations across the spec/property matrix.
  for (int round = 0; round < 2; ++round) {
    for (const SpecFamily& family : families) {
      for (const char* property : family.properties) {
        size_t fresh = 1 + rng() % 2;
        if (std::string(family.name) == "shop" && round > 0) fresh = 2;
        const size_t single_jobs = 2 + 2 * (rng() % 2);  // 2 or 4
        const size_t shard_count = 2 + rng() % 3;        // 2..4
        CheckConfig(family, property, fresh, single_jobs, shard_count,
                    &rng);
        ++config;
      }
    }
  }
  // Plus a handful of aggressive decompositions on the largest space.
  for (int i = 0; i < 8; ++i) {
    CheckConfig(Families()[1], Families()[1].properties[i % 3], 2, 4,
                2 + rng() % 4, &rng);
    ++config;
  }
  EXPECT_GE(config, 20);
}

// A shard whose range lies beyond the enumeration's end covers nothing and
// reports completion (its enumerator exhausted before the range began).
TEST(DistributedSweep, RangeBeyondTheSpaceIsEmptyAndComplete) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  VerifierOptions options;
  options.fresh_domain_size = 2;  // 3 databases
  options.range_lo = 50;
  options.range_hi = 60;
  const VerificationResult r =
      RunVerifier(*comp, "forall x: G(not Requester.got(x))", options);
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.coverage.covered.empty());
  EXPECT_EQ(r.coverage.stop_reason, StopReason::kComplete);
}

TEST(DistributedSweep, InvalidRangesAreRejected) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  auto property = ltl::Property::Parse("G(true)");
  ASSERT_TRUE(property.ok());

  VerifierOptions backwards;
  backwards.range_lo = 5;
  backwards.range_hi = 2;
  Verifier v1(&*comp, backwards);
  EXPECT_FALSE(v1.Verify(*property).ok());

  // max_databases bounds a sweep; a pinned run checks exactly its
  // databases, so a cap there is an error rather than silently ignored.
  VerifierOptions capped_pinned;
  capped_pinned.fixed_databases =
      std::vector<NamedDatabase>(comp->peers().size());
  capped_pinned.max_databases = 0;
  Verifier v2(&*comp, capped_pinned);
  EXPECT_FALSE(v2.Verify(*property).ok());
}

// The ROADMAP-noted counting bug: --max-databases is an ABSOLUTE index into
// the canonical enumeration, not "n more after the resume point". A resumed
// run with max_databases=3 must stop at absolute index 3, not prefix+3.
TEST(DistributedSweep, MaxDatabasesCountsAbsoluteIndicesAcrossResume) {
  auto comp = spec::ParseComposition(kShop);
  ASSERT_TRUE(comp.ok());
  const char* property = "G(true)";
  const std::string ckpt = TempPath("absolute.ckpt");

  VerifierOptions first;
  first.fresh_domain_size = 2;
  first.max_databases = 2;
  first.checkpoint_path = ckpt;
  const VerificationResult leg1 = RunVerifier(*comp, property, first);
  EXPECT_EQ(leg1.coverage.completed_prefix, 2u);
  EXPECT_EQ(leg1.coverage.stop_reason, StopReason::kBudget);

  auto loaded = ReadCheckpoint(ckpt, "");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  VerifierOptions second;
  second.fresh_domain_size = 2;
  second.max_databases = 3;  // absolute: one more database, not 2+3
  second.checkpoint_path = ckpt;
  second.resume_covered = loaded->covered;
  const VerificationResult leg2 = RunVerifier(*comp, property, second);
  EXPECT_EQ(leg2.coverage.completed_prefix, 3u);
  EXPECT_EQ(leg2.coverage.covered,
            (std::vector<IndexInterval>{{0, 3}}));
  EXPECT_EQ(leg2.coverage.stop_reason, StopReason::kBudget);

  // And with the cap below the resume point, the run has nothing to do.
  VerifierOptions third = second;
  third.max_databases = 1;
  const VerificationResult leg3 = RunVerifier(*comp, property, third);
  EXPECT_EQ(leg3.stats.databases_checked, 0u);
}

// The valuation-space analogue for pinned-database runs: random two-way
// splits of the valuation space merge to the single run's verdict.
TEST(DistributedSweep, ValuationRangeShardsMergeLikeTheSingleRun) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  const char* property = "forall x: G(not Requester.got(x))";

  VerifierOptions base;
  base.fresh_domain_size = 2;
  std::vector<NamedDatabase> dbs(comp->peers().size());
  dbs[0]["item"] = {{"a"}, {"b"}};
  base.fixed_databases = dbs;

  VerifierOptions count = base;
  count.count_only = true;
  const VerificationResult counted = RunVerifier(*comp, property, count);
  const size_t total = counted.enumeration_count;
  EXPECT_EQ(counted.coverage.unit, "valuation");
  ASSERT_GT(total, 1u);

  const VerificationResult baseline = RunVerifier(*comp, property, base);

  std::mt19937 rng(7);
  for (int i = 0; i < 4; ++i) {
    const size_t cut = rng() % (total + 1);
    VerifierOptions lo = base;
    lo.range_lo = 0;
    lo.range_hi = cut;
    VerifierOptions hi = base;
    hi.range_lo = cut;
    hi.range_hi = static_cast<size_t>(-1);
    std::vector<ShardReport> shards = {ToShard(RunVerifier(*comp, property, lo), "lo"),
                                       ToShard(RunVerifier(*comp, property, hi),
                                               "hi")};
    // A [0, 0) slice covers nothing and reports range-end; the upper shard
    // then attests exhaustion, so the merge still resolves.
    auto merged = MergeShards(shards);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->unit, "valuation");
    if (baseline.counterexample.has_value()) {
      EXPECT_EQ(merged->verdict, "violated");
      EXPECT_EQ(merged->witness_valuation_index,
                baseline.counterexample->valuation_index);
    } else {
      EXPECT_EQ(merged->verdict, "holds");
    }
  }
}

}  // namespace
}  // namespace wsv::verifier
