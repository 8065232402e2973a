#ifndef WSVERIFY_VERIFIER_MERGE_H_
#define WSVERIFY_VERIFIER_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "verifier/checkpoint.h"

namespace wsv::verifier {

/// One shard's contribution to a merged verdict, extracted from the verdict
/// section of its `wsvc --stats-json` document (ShardFromStatsJson) and
/// optionally cross-checked against its checkpoint file.
struct ShardReport {
  /// Where the report came from (file path or shard label) — diagnostics
  /// only, never part of the merge decision.
  std::string source;
  /// Spec/property/options fingerprint (FingerprintParts); shards with
  /// different fingerprints verified different problems and must not merge.
  std::string fingerprint;

  bool holds = true;
  bool has_witness = false;
  uint64_t witness_db_index = 0;
  uint64_t witness_valuation_index = 0;

  /// Covered intervals (absolute indices, normalized half-open) and what
  /// they index ("database" sweeps / "valuation" pinned-database runs).
  std::vector<IndexInterval> covered;
  std::string unit = "database";
  /// The slice this shard was assigned.
  uint64_t range_lo = 0;
  uint64_t range_hi = UINT64_MAX;
  /// StopReasonName of the shard's run: "complete" attests enumerator
  /// exhaustion — the only way the merged space's true end is known.
  std::string stop_reason = "complete";
  std::vector<uint64_t> failed_indices;
};

/// The union of N shard runs of the same verification problem.
struct MergeReport {
  /// "violated" | "holds" | "incomplete". "holds" is emitted only when the
  /// union is gap-free from 0, some shard attests enumerator exhaustion
  /// ("complete") and no database failed — anything weaker over a
  /// violation-free union degrades to "incomplete", never to "holds".
  std::string verdict = "incomplete";
  bool complete = false;

  bool has_witness = false;
  /// Globally lowest witness across shards, ordered by
  /// (witness_db_index, witness_valuation_index) — identical to what one
  /// unsharded run would report.
  uint64_t witness_db_index = 0;
  uint64_t witness_valuation_index = 0;
  /// Index (into the input vector) of the shard that owns that witness.
  size_t witness_shard = 0;

  std::vector<IndexInterval> covered;  // normalized union
  /// Uncovered holes in [0, end) where end is the highest covered index;
  /// non-empty gaps force verdict "incomplete".
  std::vector<IndexInterval> gaps;
  /// Indices claimed by more than one shard (total multiplicity excess) —
  /// deduplicated with a warning, not an error: overlap wastes work but
  /// cannot corrupt a deterministic sweep's verdict.
  uint64_t overlap = 0;

  std::string unit = "database";
  std::string fingerprint;
  std::vector<uint64_t> failed_indices;  // sorted, deduplicated
  std::vector<std::string> warnings;
};

/// Merges shard reports into one verdict. Fails (kInvalidSpec) when two
/// shards carry different non-empty fingerprints or different units; a
/// missing fingerprint is tolerated with a warning. `shards` must be
/// non-empty.
Result<MergeReport> MergeShards(const std::vector<ShardReport>& shards);

/// Running state of a streaming merge: everything FinalizeMerge needs,
/// independent of how many shards have been folded in — O(intervals), not
/// O(shards). `wsvc-merge --incremental STATE` persists one of these
/// between invocations so a supervisor can merge each shard as it
/// finishes instead of holding every report for one final all-at-once
/// merge. MergeShards is FoldShard+FinalizeMerge over a fresh state, so
/// the two paths cannot diverge.
struct IncrementalMergeState {
  /// Shards folded so far (witness_shard ordinals count from 0 in fold
  /// order).
  uint64_t shards = 0;
  std::string fingerprint;
  std::string unit = "database";
  /// Sum of per-shard covered lengths; overlap at finalize is this minus
  /// the union's length.
  uint64_t sum_lengths = 0;
  std::vector<IndexInterval> covered;  // normalized union
  std::vector<uint64_t> failed;        // sorted, deduplicated
  bool any_complete = false;
  uint64_t complete_end = 0;
  bool has_witness = false;
  uint64_t witness_db_index = 0;
  uint64_t witness_valuation_index = 0;
  uint64_t witness_shard = 0;
  std::string witness_source;
  std::vector<std::string> warnings;
};

/// Folds one shard into the state (same compatibility rules as
/// MergeShards: unit mismatch and conflicting fingerprints are
/// kInvalidSpec, a missing fingerprint warns).
Status FoldShard(IncrementalMergeState* state, const ShardReport& shard);

/// Derives the merged verdict from a folded state. `state.shards` must be
/// > 0.
MergeReport FinalizeMerge(const IncrementalMergeState& state);

/// Persists / restores the state as a small JSON document. LoadMergeState
/// returns kNotFound when the file does not exist (start a fresh state)
/// and kParseError on damage.
Status SaveMergeState(const std::string& path,
                      const IncrementalMergeState& state);
Result<IncrementalMergeState> LoadMergeState(const std::string& path);

/// Parses one `wsvc --stats-json` document into a ShardReport (fingerprint,
/// verdict, witness, coverage). `source` labels diagnostics.
Result<ShardReport> ShardFromStatsJson(const std::string& json_text,
                                       const std::string& source);

/// Folds a checkpoint file into `shard`: validates the fingerprint against
/// the shard's, unions the checkpoint's covered intervals and failed
/// indices. Lets a merge credit progress a killed shard persisted after its
/// last verdict write.
Status ApplyCheckpoint(const std::string& checkpoint_path,
                       ShardReport* shard);

/// Renders the merged verdict as JSON (the "verdict" section of a
/// wsvc-merge stats document).
std::string RenderMergeJson(const MergeReport& report, int exit_code);

/// Exit code contract: 0 holds (complete), 3 violated, 4 incomplete.
int MergeExitCode(const MergeReport& report);

/// Aggregates the observability sections of per-shard stats documents into
/// one roll-up (the "shards" section of a wsvc-merge stats document):
/// counters summed, phase-tree entries summed per path into "phases" (the
/// shape of the top-level section), histograms merged bucket-wise, worker
/// utilization folded to mean/min/max across every worker of every shard,
/// plus a per-shard table (wall, exec, lock wait, utilization) and the
/// straggler — the shard whose wall clock bounds the sweep. `stats_texts`
/// and `sources` are parallel; shards whose text fails to parse are skipped
/// (ShardFromStatsJson already rejected them for the verdict merge).
std::string RenderShardStatsRollup(const std::vector<std::string>& stats_texts,
                                   const std::vector<std::string>& sources);

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_MERGE_H_
