// Determinism and round-trip tests for the composition generator
// (src/gen): the same (seed, regime, dials) must produce byte-identical
// scenarios across repeated calls and across threads, every regime must
// generate valid parse/print-fixpoint compositions, corpus files must
// round-trip, and the break-leg hook must drive the mismatch -> shrink
// pipeline down to minimal dials.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "gen/differ.h"
#include "gen/generator.h"
#include "gen/rng.h"
#include "spec/parser.h"
#include "spec/printer.h"

namespace wsv::gen {
namespace {

std::string ScenarioFingerprint(const Scenario& s) {
  std::string fp = s.name + "\n" + s.spec_text + "\n" + s.property + "\n" +
                   s.protocol_ltl + "\n" + s.env_spec + "\n";
  for (const auto& [channel, tuples] : s.env_messages) {
    fp += channel + ":";
    for (const auto& tuple : tuples) {
      for (const auto& value : tuple) fp += value + ",";
      fp += ";";
    }
    fp += "\n";
  }
  for (const auto& value : s.env_domain) fp += value + ",";
  for (const auto& db : s.pinned_dbs) fp += db + "|";
  fp += "\nqb=" + std::to_string(s.run.queue_bound) +
        " lossy=" + std::to_string(s.run.lossy) +
        " fresh=" + std::to_string(s.fresh) +
        " modular=" + std::to_string(s.use_modular) +
        " cfsm=" + std::to_string(s.has_cfsm);
  return fp;
}

TEST(GenTest, RegimeNamesRoundTrip) {
  for (Regime regime : AllRegimes()) {
    auto back = RegimeFromName(RegimeName(regime));
    ASSERT_TRUE(back.has_value()) << RegimeName(regime);
    EXPECT_EQ(*back, regime);
  }
  EXPECT_FALSE(RegimeFromName("nonsense").has_value());
  EXPECT_EQ(AllRegimes().size(), kNumRegimes);
}

/// Same seed + regime => byte-identical scenario, call after call.
TEST(GenTest, DeterministicAcrossCalls) {
  for (Regime regime : AllRegimes()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      GenOptions options;
      options.seed = seed;
      options.regime = regime;
      auto first = GenerateScenario(options);
      auto second = GenerateScenario(options);
      ASSERT_TRUE(first.ok()) << first.status();
      ASSERT_TRUE(second.ok()) << second.status();
      EXPECT_EQ(ScenarioFingerprint(first.value()),
                ScenarioFingerprint(second.value()))
          << RegimeName(regime) << " seed " << seed;
    }
  }
}

/// Generation is pure: concurrent generation from many threads (as under
/// any `--jobs` setting) produces the same bytes as serial generation.
TEST(GenTest, DeterministicAcrossThreads) {
  constexpr uint64_t kCount = 24;
  std::vector<std::string> serial(kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    GenOptions options;
    options.seed = Rng::DeriveSeed(7, i);
    options.regime = AllRegimes()[i % kNumRegimes];
    auto scenario = GenerateScenario(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    serial[i] = ScenarioFingerprint(scenario.value());
  }
  for (size_t num_threads : {2, 4}) {
    std::vector<std::string> threaded(kCount);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        for (uint64_t i = t; i < kCount; i += num_threads) {
          GenOptions options;
          options.seed = Rng::DeriveSeed(7, i);
          options.regime = AllRegimes()[i % kNumRegimes];
          auto scenario = GenerateScenario(options);
          if (scenario.ok()) {
            threaded[i] = ScenarioFingerprint(scenario.value());
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(serial, threaded) << num_threads << " threads";
  }
}

/// Distinct seeds actually explore the space: not every scenario is the
/// same composition.
TEST(GenTest, SeedsVary) {
  std::vector<std::string> texts;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    GenOptions options;
    options.seed = Rng::DeriveSeed(100, seed);
    auto scenario = GenerateScenario(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    texts.push_back(scenario.value().spec_text);
  }
  bool any_differ = false;
  for (size_t i = 1; i < texts.size(); ++i) {
    if (texts[i] != texts[0]) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

/// Every regime generates compositions whose printed text is a
/// parse -> print fixpoint (the satellite round-trip contract).
TEST(GenTest, GeneratedSpecsAreParsePrintFixpoints) {
  for (Regime regime : AllRegimes()) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      GenOptions options;
      options.seed = Rng::DeriveSeed(42, seed);
      options.regime = regime;
      auto scenario = GenerateScenario(options);
      ASSERT_TRUE(scenario.ok())
          << RegimeName(regime) << " seed " << seed << ": "
          << scenario.status();
      auto parsed = spec::ParseComposition(scenario.value().spec_text);
      ASSERT_TRUE(parsed.ok())
          << RegimeName(regime) << " seed " << seed << ": " << parsed.status();
      EXPECT_EQ(spec::PrintComposition(parsed.value()),
                scenario.value().spec_text)
          << RegimeName(regime) << " seed " << seed;
    }
  }
}

/// Corpus render -> parse round-trip: the regenerated scenario matches the
/// original byte for byte, and the diff options survive.
TEST(GenTest, CorpusFileRoundTrips) {
  for (Regime regime : AllRegimes()) {
    GenOptions options;
    options.seed = Rng::DeriveSeed(5, static_cast<uint64_t>(regime));
    options.regime = regime;
    auto scenario = GenerateScenario(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    DiffOptions diff;
    diff.jobs = 3;
    diff.shards = 4;
    std::string text = RenderCorpusFile(scenario.value(), diff, {});
    auto corpus = ParseCorpusFile(text);
    ASSERT_TRUE(corpus.ok()) << RegimeName(regime) << ": " << corpus.status();
    EXPECT_TRUE(corpus.value().regenerated) << RegimeName(regime);
    EXPECT_EQ(corpus.value().diff.jobs, 3u);
    EXPECT_EQ(corpus.value().diff.shards, 4u);
    EXPECT_TRUE(corpus.value().diff.break_leg.empty());
    EXPECT_EQ(ScenarioFingerprint(corpus.value().scenario),
              ScenarioFingerprint(scenario.value()))
        << RegimeName(regime);
  }
}

/// A corpus file whose directives no longer regenerate byte-identically
/// (generator drift) still replays from the recorded text.
TEST(GenTest, CorpusFileSurvivesGeneratorDrift) {
  GenOptions options;
  options.seed = 11;
  auto scenario = GenerateScenario(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  std::string text = RenderCorpusFile(scenario.value(), {}, {});
  // Simulate drift: pretend a different seed produced this text.
  size_t pos = text.find("//! seed: 11");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "//! seed: 12");
  auto corpus = ParseCorpusFile(text);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_FALSE(corpus.value().regenerated);
  EXPECT_EQ(corpus.value().scenario.spec_text, scenario.value().spec_text);
  EXPECT_EQ(corpus.value().scenario.property, scenario.value().property);
}

/// All legs agree on a clean scenario; the break-leg hook makes them
/// disagree with a detail naming the broken leg.
TEST(GenTest, BreakLegForcesMismatch) {
  GenOptions options;
  options.seed = 3;
  options.regime = Regime::kCore;
  auto scenario = GenerateScenario(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  DiffOptions clean;
  auto verdict = RunDifferential(scenario.value(), clean);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(verdict.value().ok) << verdict.value().detail;
  EXPECT_GE(verdict.value().legs.size(), 3u);

  DiffOptions broken;
  broken.break_leg = "engine-jobs2";
  auto broken_verdict = RunDifferential(scenario.value(), broken);
  ASSERT_TRUE(broken_verdict.ok()) << broken_verdict.status();
  EXPECT_FALSE(broken_verdict.value().ok);
  EXPECT_NE(broken_verdict.value().detail.find("engine-jobs2"),
            std::string::npos)
      << broken_verdict.value().detail;
}

/// Shrinking a broken scenario walks every dial to its minimum while the
/// mismatch persists — the committed repro is minimal along every axis.
TEST(GenTest, ShrinkReachesMinimalDials) {
  GenOptions options;
  options.seed = 3;
  options.regime = Regime::kCore;
  auto scenario = GenerateScenario(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  DiffOptions broken;
  broken.break_leg = "engine";
  auto shrunk = Shrink(scenario.value(), broken);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_FALSE(shrunk.value().verdict.ok);
  const Dials& dials = shrunk.value().scenario.options.dials;
  EXPECT_EQ(dials.num_peers, 2u);
  EXPECT_EQ(dials.num_constants, 1u);
  EXPECT_EQ(dials.max_extra_rules, 0u);
  EXPECT_EQ(dials.fresh, 1u);
  EXPECT_EQ(dials.queue_bound, 1u);
  EXPECT_GT(shrunk.value().attempts, 0u);
}

}  // namespace
}  // namespace wsv::gen
