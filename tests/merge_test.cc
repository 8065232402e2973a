// Unit and adversarial tests for the shard-merge layer: the interval
// algebra, the v2 interval checkpoint format (and its v1 round-trip), and
// MergeShards' refusal/degradation behavior — the properties that keep a
// distributed sweep's merged "holds" verdict sound.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json_util.h"
#include "verifier/checkpoint.h"
#include "verifier/merge.h"

namespace wsv::verifier {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

using Intervals = std::vector<IndexInterval>;

TEST(IntervalAlgebra, NormalizeSortsMergesAndDropsEmpty) {
  EXPECT_EQ(NormalizeIntervals({{5, 9}, {0, 3}, {3, 5}, {7, 7}}),
            (Intervals{{0, 9}}));
  EXPECT_EQ(NormalizeIntervals({{4, 6}, {0, 2}}),
            (Intervals{{0, 2}, {4, 6}}));
  EXPECT_EQ(NormalizeIntervals({}), Intervals{});
}

TEST(IntervalAlgebra, AddIntervalKeepsNormalForm) {
  Intervals set;
  AddInterval(&set, 10, 20);
  AddInterval(&set, 0, 5);
  AddInterval(&set, 5, 10);  // bridges the hole
  EXPECT_EQ(set, (Intervals{{0, 20}}));
  AddInterval(&set, 30, 30);  // empty: no-op
  EXPECT_EQ(set, (Intervals{{0, 20}}));
}

TEST(IntervalAlgebra, ContainsPrefixGapsIntersect) {
  const Intervals set = NormalizeIntervals({{0, 3}, {5, 8}});
  EXPECT_TRUE(IntervalsContain(set, 0));
  EXPECT_TRUE(IntervalsContain(set, 7));
  EXPECT_FALSE(IntervalsContain(set, 3));
  EXPECT_FALSE(IntervalsContain(set, 8));
  EXPECT_EQ(ContiguousPrefix(set), 3u);
  EXPECT_EQ(ContiguousPrefix(Intervals{{1, 4}}), 0u);
  EXPECT_EQ(IntervalGaps(set, 10), (Intervals{{3, 5}, {8, 10}}));
  EXPECT_EQ(IntervalGaps(set, 8), (Intervals{{3, 5}}));
  EXPECT_EQ(IntersectIntervals(set, 2, 6), (Intervals{{2, 3}, {5, 6}}));
}

TEST(IntervalAlgebra, ResumeStartSkipsTheCoveredRunAtLo) {
  const Intervals set = NormalizeIntervals({{0, 3}, {5, 8}});
  EXPECT_EQ(ResumeStart(set, 0), 3u);   // inside [0,3) -> its end
  EXPECT_EQ(ResumeStart(set, 3), 3u);   // uncovered -> itself
  EXPECT_EQ(ResumeStart(set, 6), 8u);
  EXPECT_EQ(ResumeStart(set, 9), 9u);
}

TEST(IntervalAlgebra, StringRoundTrip) {
  const Intervals set = NormalizeIntervals({{0, 3}, {5, 8}});
  EXPECT_EQ(IntervalsToString(set), "0:3,5:8");
  EXPECT_EQ(IntervalsToString({}), "-");
  auto parsed = ParseIntervals("0:3,5:8");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, set);
  ASSERT_TRUE(ParseIntervals("-").ok());
  EXPECT_TRUE(ParseIntervals("-")->empty());
  EXPECT_FALSE(ParseIntervals("5:3").ok());
  EXPECT_FALSE(ParseIntervals("abc").ok());
  EXPECT_FALSE(ParseIntervals("1:").ok());
}

// --- Checkpoint format: intervals and v1 compatibility. ---

TEST(CheckpointIntervals, V2RoundTripPreservesCoveredAndUnit) {
  const std::string path = TempPath("v2.ckpt");
  Checkpoint cp;
  cp.fingerprint = FingerprintParts({"spec"});
  cp.covered = NormalizeIntervals({{0, 10}, {20, 30}});
  cp.failed_indices = {4, 25};
  cp.databases_completed = 20;
  cp.stop_reason = "range-end";
  cp.unit = "valuation";
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());

  auto loaded = ReadCheckpoint(path, cp.fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->covered, cp.covered);
  EXPECT_EQ(ContiguousPrefix(loaded->covered), 10u);
  EXPECT_EQ(loaded->failed_indices, cp.failed_indices);
  EXPECT_EQ(loaded->unit, "valuation");
  EXPECT_EQ(loaded->stop_reason, "range-end");
}

TEST(CheckpointIntervals, RejectsFailedIndexOutsideCoveredIntervals) {
  const std::string path = TempPath("outside.ckpt");
  // A well-formed v3 document (valid CRC) whose only defect is the failed
  // index outside its covered interval.
  const std::string body =
      "wsv-checkpoint 3\n"
      "fingerprint -\n"
      "completed_prefix 0\n"
      "covered 5:10\n"
      "unit database\n"
      "failed 3\n"
      "databases_completed 5\n"
      "stop_reason range-end\n";
  char crc_line[24];
  std::snprintf(crc_line, sizeof(crc_line), "crc32 %08x\n", Crc32(body));
  std::ofstream(path) << body << crc_line << "end\n";
  auto loaded = ReadCheckpoint(path, "");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

// --- MergeShards adversarial behavior. ---

ShardReport MakeShard(const std::string& source, uint64_t lo, uint64_t hi,
                      const std::string& stop_reason = "range-end") {
  ShardReport s;
  s.source = source;
  s.fingerprint = "fp";
  s.covered = {{lo, hi}};
  s.range_lo = lo;
  s.range_hi = hi;
  s.stop_reason = stop_reason;
  return s;
}

TEST(MergeShards, CompleteContiguousUnionHolds) {
  auto merged = MergeShards({MakeShard("a", 0, 5), MakeShard("b", 5, 9),
                             MakeShard("c", 9, 12, "complete")});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->verdict, "holds");
  EXPECT_TRUE(merged->complete);
  EXPECT_EQ(merged->covered, (Intervals{{0, 12}}));
  EXPECT_TRUE(merged->gaps.empty());
  EXPECT_EQ(merged->overlap, 0u);
}

TEST(MergeShards, RejectsMismatchedFingerprints) {
  ShardReport other = MakeShard("b", 5, 9);
  other.fingerprint = "different";
  auto merged = MergeShards({MakeShard("a", 0, 5), other});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidSpec);
}

TEST(MergeShards, RejectsMismatchedUnits) {
  ShardReport other = MakeShard("b", 5, 9);
  other.unit = "valuation";
  auto merged = MergeShards({MakeShard("a", 0, 5), other});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidSpec);
}

TEST(MergeShards, OverlapIsDeduplicatedWithWarning) {
  auto merged = MergeShards(
      {MakeShard("a", 0, 6), MakeShard("b", 4, 9, "complete")});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->verdict, "holds");
  EXPECT_EQ(merged->covered, (Intervals{{0, 9}}));
  EXPECT_EQ(merged->overlap, 2u);
  ASSERT_FALSE(merged->warnings.empty());
  EXPECT_NE(merged->warnings[0].find("overlap"), std::string::npos);
}

TEST(MergeShards, GapDegradesToIncompleteNeverHolds) {
  auto merged = MergeShards(
      {MakeShard("a", 0, 4), MakeShard("c", 6, 10, "complete")});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->verdict, "incomplete");
  EXPECT_FALSE(merged->complete);
  EXPECT_EQ(merged->gaps, (Intervals{{4, 6}}));
}

TEST(MergeShards, NoExhaustionAttestationMeansIncomplete) {
  // Contiguous from 0 but no shard ran its enumerator dry: the space's true
  // end is unknown, so "holds" would be unsound.
  auto merged = MergeShards({MakeShard("a", 0, 5), MakeShard("b", 5, 9)});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->verdict, "incomplete");
  EXPECT_FALSE(merged->complete);
  EXPECT_TRUE(merged->gaps.empty());
}

TEST(MergeShards, FailedIndicesBlockHoldsAndMergeSorted) {
  ShardReport a = MakeShard("a", 0, 5);
  a.failed_indices = {3};
  ShardReport b = MakeShard("b", 5, 9, "complete");
  b.failed_indices = {7, 3};
  auto merged = MergeShards({a, b});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->verdict, "incomplete");
  EXPECT_EQ(merged->failed_indices, (std::vector<uint64_t>{3, 7}));
}

TEST(MergeShards, LowestWitnessWinsAcrossShards) {
  ShardReport a = MakeShard("a", 0, 5);
  a.has_witness = true;
  a.witness_db_index = 4;
  a.witness_valuation_index = 0;
  a.covered = {{0, 4}};
  ShardReport b = MakeShard("b", 5, 9);
  b.has_witness = true;
  b.witness_db_index = 4;
  b.witness_valuation_index = 2;
  b.covered = {};
  ShardReport c = MakeShard("c", 9, 12);
  c.has_witness = true;
  c.witness_db_index = 9;
  c.witness_valuation_index = 0;
  auto merged = MergeShards({b, c, a});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->verdict, "violated");
  EXPECT_EQ(merged->witness_db_index, 4u);
  EXPECT_EQ(merged->witness_valuation_index, 0u);
  EXPECT_EQ(merged->witness_shard, 2u);  // index of `a` in the input order
}

TEST(MergeShards, MissingFingerprintWarnsButMerges) {
  ShardReport b = MakeShard("b", 5, 9, "complete");
  b.fingerprint.clear();
  auto merged = MergeShards({MakeShard("a", 0, 5), b});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->fingerprint, "fp");
  ASSERT_FALSE(merged->warnings.empty());
  EXPECT_NE(merged->warnings[0].find("no fingerprint"), std::string::npos);
}

// --- Shard-report parsing and merged-JSON rendering. ---

TEST(ShardFromStatsJson, ParsesTheVerdictDocument) {
  const std::string doc = R"({
    "schema_version": 1, "generator": "wsvc",
    "verdict": {
      "exit_code": 0, "kind": "property", "fingerprint": "abcd",
      "holds": true, "complete": false, "counterexample": false,
      "coverage": {
        "stop_reason": "range-end", "stop_code": "RangeEnd",
        "stop_message": "", "completed_prefix": 0,
        "covered": [[3, 7]], "unit": "database",
        "range_lo": 3, "range_hi": 7,
        "failed_db_indices": [5], "db_retries": 0
      }
    }
  })";
  auto shard = ShardFromStatsJson(doc, "s");
  ASSERT_TRUE(shard.ok()) << shard.status();
  EXPECT_EQ(shard->fingerprint, "abcd");
  EXPECT_TRUE(shard->holds);
  EXPECT_FALSE(shard->has_witness);
  EXPECT_EQ(shard->covered, (Intervals{{3, 7}}));
  EXPECT_EQ(shard->stop_reason, "range-end");
  EXPECT_EQ(shard->range_lo, 3u);
  EXPECT_EQ(shard->range_hi, 7u);
  EXPECT_EQ(shard->failed_indices, (std::vector<uint64_t>{5}));
}

TEST(ShardFromStatsJson, LiftsPrefixOnlyDocuments) {
  const std::string doc = R"({
    "verdict": {
      "exit_code": 0, "kind": "property", "holds": true,
      "counterexample": false,
      "coverage": {"stop_reason": "complete", "completed_prefix": 4,
                   "failed_db_indices": []}
    }
  })";
  auto shard = ShardFromStatsJson(doc, "s");
  ASSERT_TRUE(shard.ok()) << shard.status();
  EXPECT_EQ(shard->covered, (Intervals{{0, 4}}));
  EXPECT_TRUE(shard->fingerprint.empty());
}

TEST(ShardFromStatsJson, RejectsDocumentsWithoutAVerdict) {
  EXPECT_FALSE(ShardFromStatsJson(R"({"schema_version": 1})", "s").ok());
  EXPECT_FALSE(ShardFromStatsJson(R"({"verdict": {"exit_code": 2}})", "s")
                   .ok());
  EXPECT_FALSE(ShardFromStatsJson("not json", "s").ok());
}

TEST(RenderMergeJson, EmitsWellFormedJson) {
  auto merged = MergeShards(
      {MakeShard("a", 0, 6), MakeShard("b", 4, 9, "complete")});
  ASSERT_TRUE(merged.ok());
  const std::string json = RenderMergeJson(*merged, MergeExitCode(*merged));
  auto doc = obs::JsonParse(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << json;
  EXPECT_EQ(doc->Find("verdict")->AsString(""), "holds");
  EXPECT_EQ(doc->Find("coverage")->Find("overlap")->AsUint(0), 2u);
}

TEST(RenderShardStatsRollup, SumsPhasesPerPathAndNamesTheStraggler) {
  // "total" and "total/check_db" appear in both shards; the worker-rooted
  // "check_db" subtree only in the second.
  const std::string fast = R"({
    "counters": {"engine.databases_checked": 2},
    "phases": [
      {"path": "total", "total_ns": 100, "self_ns": 10, "count": 1},
      {"path": "total/check_db", "total_ns": 90, "self_ns": 90, "count": 2}
    ]
  })";
  const std::string slow = R"({
    "counters": {"engine.databases_checked": 3},
    "phases": [
      {"path": "check_db", "total_ns": 40, "self_ns": 15, "count": 1},
      {"path": "check_db/ndfs", "total_ns": 25, "self_ns": 25, "count": 1},
      {"path": "total", "total_ns": 300, "self_ns": 20, "count": 1},
      {"path": "total/check_db", "total_ns": 280, "self_ns": 280, "count": 3}
    ]
  })";
  const std::string json =
      RenderShardStatsRollup({fast, slow}, {"fast.json", "slow.json"});
  auto doc = obs::JsonParse(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << json;
  EXPECT_EQ(doc->Find("count")->AsUint(0), 2u);
  EXPECT_EQ(
      doc->FindPath({"counters", "engine.databases_checked"})->AsUint(0), 5u);

  using Row = std::tuple<std::string, uint64_t, uint64_t, uint64_t>;
  std::vector<Row> rows;
  const obs::JsonValue* phases = doc->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->IsArray()) << json;
  for (const obs::JsonValue& entry : phases->array) {
    rows.emplace_back(entry.Find("path")->AsString(""),
                      entry.Find("total_ns")->AsUint(0),
                      entry.Find("self_ns")->AsUint(0),
                      entry.Find("count")->AsUint(0));
  }
  EXPECT_EQ(rows, (std::vector<Row>{{"check_db", 40, 15, 1},
                                    {"check_db/ndfs", 25, 25, 1},
                                    {"total", 400, 30, 2},
                                    {"total/check_db", 370, 370, 5}}));

  // The straggler is the shard whose "total" phase is longest.
  EXPECT_EQ(doc->FindPath({"straggler", "source"})->AsString(""),
            "slow.json");
  EXPECT_EQ(doc->FindPath({"straggler", "wall_ns"})->AsUint(0), 300u);
  const obs::JsonValue* per_shard = doc->Find("per_shard");
  ASSERT_NE(per_shard, nullptr);
  ASSERT_EQ(per_shard->array.size(), 2u);
  EXPECT_EQ(per_shard->array[0].Find("wall_ns")->AsUint(0), 100u);
}

TEST(ApplyCheckpointToShard, UnionsCoverageAndValidatesFingerprint) {
  const std::string path = TempPath("apply.ckpt");
  Checkpoint cp;
  cp.fingerprint = "fp";
  cp.covered = {{0, 4}};
  cp.failed_indices = {2};
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());

  ShardReport shard = MakeShard("a", 4, 8);
  ASSERT_TRUE(ApplyCheckpoint(path, &shard).ok());
  EXPECT_EQ(shard.covered, (Intervals{{0, 8}}));
  EXPECT_EQ(shard.failed_indices, (std::vector<uint64_t>{2}));

  ShardReport wrong = MakeShard("b", 0, 2);
  wrong.fingerprint = "other";
  EXPECT_FALSE(ApplyCheckpoint(path, &wrong).ok());
}

}  // namespace
}  // namespace wsv::verifier
