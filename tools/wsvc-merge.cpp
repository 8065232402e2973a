// wsvc-merge — merges the verdicts of N range-sharded `wsvc` runs into one
// verdict over the union of their coverage (tools/shard_sweep.py drives it).
//
// Each shard is a PAIR: the shard's --stats-json document, then its
// --checkpoint file or "-" when the shard ran without one. The merge
// refuses shards whose fingerprints disagree (they verified different
// problems), deduplicates overlapping coverage with a warning, reports
// uncovered gaps, and never upgrades a gappy union to "holds".
//
// Batch mode (default) takes every pair at once. With --incremental STATE
// the given pairs are FOLDED into a persisted merge state (O(1) memory in
// the number of shards) and the process exits 0 without a verdict; adding
// --finalize derives the verdict from the accumulated state instead. A
// supervisor uses this to merge each shard lease as it finishes.
//
// Exit codes: 0 merged verdict holds over the complete enumeration,
// 3 violated (witness = globally lowest (db, valuation) index), 4 the
// union is violation-free but incomplete, 2 usage or incompatible shards.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/fault.h"
#include "obs/obs.h"
#include "verifier/merge.h"

namespace {

using namespace wsv;

int Usage() {
  std::fputs(cli::Usage(cli::MergeTool(), "").c_str(), stderr);
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  if (WSV_FAULT_POINT("merge.io")) {
    return Status::Internal("read of '" + path +
                            "' failed (injected fault 'merge.io')");
  }
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  const cli::ParsedArgs args = cli::ParseOrExit(cli::MergeTool(), argc, argv);
  const std::string out_path = args.Get("--stats-json");
  const std::string state_path = args.Get("--incremental");
  const bool finalize = args.Has("--finalize");
  const std::vector<std::string>& positional = args.positional;
  if (finalize && state_path.empty()) {
    std::fprintf(stderr, "wsvc-merge: --finalize requires --incremental\n");
    return Usage();
  }
  if (positional.size() % 2 != 0) {
    std::fprintf(stderr,
                 "wsvc-merge: expects STATS/CKPT pairs ('-' for a missing "
                 "checkpoint), got %zu argument(s)\n",
                 positional.size());
    return Usage();
  }
  if (positional.empty() && !finalize) {
    std::fprintf(stderr, "wsvc-merge: no shard pairs given\n");
    return Usage();
  }

  obs::Registry& registry = obs::Registry::Global();
  if (!out_path.empty()) obs::SetTimingEnabled(true);

  // Resume the persisted fold state in incremental mode (a missing file is
  // a fresh state, anything else torn is a hard error — silently dropping
  // folded shards could upgrade an incomplete union to "holds").
  verifier::IncrementalMergeState state;
  if (!state_path.empty()) {
    auto loaded = verifier::LoadMergeState(state_path);
    if (loaded.ok()) {
      state = std::move(*loaded);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "wsvc-merge: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
  }

  std::vector<verifier::ShardReport> shards;
  // Shard stats texts and their labels, kept for the observability roll-up
  // (counters/histograms/utilization aggregated across shards). Batch mode
  // only — the incremental state intentionally forgets per-shard documents.
  std::vector<std::string> shard_texts;
  std::vector<std::string> shard_sources;
  for (size_t i = 0; i < positional.size(); i += 2) {
    const std::string& stats_path = positional[i];
    const std::string& ckpt_path = positional[i + 1];
    auto text = ReadFile(stats_path);
    if (!text.ok()) {
      std::fprintf(stderr, "wsvc-merge: %s\n",
                   text.status().ToString().c_str());
      return 2;
    }
    shard_texts.push_back(*text);
    shard_sources.push_back(stats_path);
    auto shard = verifier::ShardFromStatsJson(*text, stats_path);
    if (!shard.ok()) {
      std::fprintf(stderr, "wsvc-merge: %s\n",
                   shard.status().ToString().c_str());
      return 2;
    }
    if (ckpt_path != "-") {
      Status applied = verifier::ApplyCheckpoint(ckpt_path, &*shard);
      if (!applied.ok()) {
        // A checkpoint both torn AND without a readable .bak only loses the
        // progress the shard persisted after its last verdict write — the
        // stats document's own coverage still counts, so degrade to a
        // warning. A fingerprint mismatch stays fatal: that checkpoint
        // belongs to a different problem and crediting it would be wrong.
        if (applied.code() == StatusCode::kInvalidSpec) {
          std::fprintf(stderr, "wsvc-merge: checkpoint '%s': %s\n",
                       ckpt_path.c_str(), applied.ToString().c_str());
          return 2;
        }
        std::fprintf(stderr,
                     "wsvc-merge: warning: checkpoint '%s' unusable (%s); "
                     "merging shard '%s' without checkpoint credit\n",
                     ckpt_path.c_str(), applied.ToString().c_str(),
                     stats_path.c_str());
      }
    }
    shards.push_back(std::move(*shard));
  }

  // Incremental fold: push the new shards into the state, persist, and
  // (unless finalizing) stop before any verdict is derived.
  if (!state_path.empty()) {
    for (const verifier::ShardReport& shard : shards) {
      Status folded = verifier::FoldShard(&state, shard);
      if (!folded.ok()) {
        std::fprintf(stderr, "wsvc-merge: %s\n", folded.ToString().c_str());
        return 2;
      }
    }
    Status saved = verifier::SaveMergeState(state_path, state);
    if (!saved.ok()) {
      std::fprintf(stderr, "wsvc-merge: %s\n", saved.ToString().c_str());
      return 2;
    }
    if (!finalize) {
      std::printf("merge-state: %llu shard(s) folded (%s coverage %s)\n",
                  static_cast<unsigned long long>(state.shards),
                  state.unit.c_str(),
                  verifier::IntervalsToString(state.covered).c_str());
      return 0;
    }
    if (state.shards == 0) {
      std::fprintf(stderr,
                   "wsvc-merge: --finalize on an empty merge state\n");
      return 2;
    }
  }

  verifier::MergeReport merged_report;
  {
    obs::PhaseTimer merge_phase("merge");
    if (!state_path.empty()) {
      merged_report = verifier::FinalizeMerge(state);
    } else {
      auto merged = verifier::MergeShards(shards);
      if (!merged.ok()) {
        std::fprintf(stderr, "wsvc-merge: %s\n",
                     merged.status().ToString().c_str());
        return 2;
      }
      merged_report = std::move(*merged);
    }
  }
  const verifier::MergeReport& merged = merged_report;
  int rc = verifier::MergeExitCode(merged);

  const uint64_t shard_count =
      state_path.empty() ? shards.size() : state.shards;
  for (const std::string& warning : merged.warnings) {
    std::fprintf(stderr, "wsvc-merge: warning: %s\n", warning.c_str());
  }
  std::printf("merge: %s (%llu shard(s), %s coverage %s",
              merged.verdict.c_str(),
              static_cast<unsigned long long>(shard_count),
              merged.unit.c_str(),
              verifier::IntervalsToString(merged.covered).c_str());
  if (!merged.gaps.empty()) {
    std::printf(", gaps %s",
                verifier::IntervalsToString(merged.gaps).c_str());
  }
  std::printf(")\n");
  if (merged.has_witness) {
    const std::string witness_source =
        state_path.empty() ? shards[merged.witness_shard].source
                           : state.witness_source;
    std::printf("  witness: database %llu, valuation %llu (shard %zu: %s)\n",
                static_cast<unsigned long long>(merged.witness_db_index),
                static_cast<unsigned long long>(
                    merged.witness_valuation_index),
                merged.witness_shard, witness_source.c_str());
  }

  // Per-shard counters for the obs stats document.
  registry.counter("merge.shards").Add(shard_count);
  registry.counter("merge.gaps").Add(merged.gaps.size());
  registry.counter("merge.overlap").Add(merged.overlap);
  if (merged.has_witness) {
    registry.counter("merge.witness_shard").Add(merged.witness_shard);
  }

  if (!out_path.empty()) {
    std::vector<std::pair<std::string, std::string>> extra;
    extra.emplace_back("verdict",
                       verifier::RenderMergeJson(merged, rc));
    // The per-shard observability roll-up needs every stats document in
    // hand; an incremental finalize only has the state, so it is skipped.
    if (state_path.empty()) {
      extra.emplace_back("shards", verifier::RenderShardStatsRollup(
                                       shard_texts, shard_sources));
    }
    Status written = obs::WriteStatsJson(registry, "wsvc-merge", out_path,
                                         extra);
    if (!written.ok()) {
      std::fprintf(stderr, "wsvc-merge: stats-json: %s\n",
                   written.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
