#include "verifier/merge.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "obs/json_util.h"
#include "obs/stats_json.h"

namespace wsv::verifier {

namespace {

uint64_t IntervalsLength(const std::vector<IndexInterval>& set) {
  uint64_t total = 0;
  for (const IndexInterval& iv : set) total += iv.second - iv.first;
  return total;
}

}  // namespace

Status FoldShard(IncrementalMergeState* state, const ShardReport& shard) {
  // Unit and fingerprint compatibility: shards that verified different
  // problems (or different work units) must never be unioned — the indices
  // would mean different things.
  if (state->shards == 0) {
    state->unit = shard.unit;
  } else if (shard.unit != state->unit) {
    return Status::InvalidSpec(
        "shard '" + shard.source + "' covers unit '" + shard.unit +
        "' but an earlier shard covers '" + state->unit +
        "' — these runs cannot merge");
  }
  if (shard.fingerprint.empty()) {
    state->warnings.push_back("shard '" + shard.source +
                              "' carries no fingerprint; compatibility "
                              "with the other shards is unchecked");
  } else if (state->fingerprint.empty()) {
    state->fingerprint = shard.fingerprint;
  } else if (shard.fingerprint != state->fingerprint) {
    return Status::InvalidSpec(
        "fingerprint mismatch: shard '" + shard.source + "' has " +
        shard.fingerprint + " but an earlier shard has " +
        state->fingerprint + " — the runs verified different problems");
  }

  // Union coverage; the multiplicity excess across all folds is the
  // overlap, computed at finalize from the running length sum.
  std::vector<IndexInterval> covered = NormalizeIntervals(shard.covered);
  state->sum_lengths += IntervalsLength(covered);
  for (const IndexInterval& iv : covered) {
    AddInterval(&state->covered, iv.first, iv.second);
  }
  if (shard.stop_reason == "complete") {
    state->any_complete = true;
    for (const IndexInterval& iv : covered) {
      state->complete_end = std::max(state->complete_end, iv.second);
    }
  }

  // Witness: the globally lowest (db, valuation) pair is exactly what one
  // unsharded deterministic sweep would have stopped at.
  if (shard.has_witness) {
    bool lower =
        !state->has_witness ||
        shard.witness_db_index < state->witness_db_index ||
        (shard.witness_db_index == state->witness_db_index &&
         shard.witness_valuation_index < state->witness_valuation_index);
    if (lower) {
      state->has_witness = true;
      state->witness_db_index = shard.witness_db_index;
      state->witness_valuation_index = shard.witness_valuation_index;
      state->witness_shard = state->shards;
      state->witness_source = shard.source;
    }
  }

  // Failed indices: sorted deduplicated union.
  state->failed.insert(state->failed.end(), shard.failed_indices.begin(),
                       shard.failed_indices.end());
  std::sort(state->failed.begin(), state->failed.end());
  state->failed.erase(std::unique(state->failed.begin(), state->failed.end()),
                      state->failed.end());

  ++state->shards;
  return Status::Ok();
}

MergeReport FinalizeMerge(const IncrementalMergeState& state) {
  MergeReport merged;
  merged.unit = state.unit;
  merged.fingerprint = state.fingerprint;
  merged.covered = state.covered;
  merged.failed_indices = state.failed;
  merged.warnings = state.warnings;
  merged.has_witness = state.has_witness;
  merged.witness_db_index = state.witness_db_index;
  merged.witness_valuation_index = state.witness_valuation_index;
  merged.witness_shard = static_cast<size_t>(state.witness_shard);

  // The multiplicity excess is the overlap (duplicated work — deduplicate
  // and warn, the verdicts still agree by determinism).
  merged.overlap = state.sum_lengths - IntervalsLength(merged.covered);
  if (merged.overlap > 0) {
    merged.warnings.push_back(
        "shards overlap on " + std::to_string(merged.overlap) + " " +
        merged.unit + " index(es); deduplicated (determinism makes the "
        "duplicate verdicts agree, but the work was wasted)");
  }

  // Completeness attestation. The enumeration's true size is only known
  // when some shard ran its enumerator to exhaustion (stop_reason
  // "complete"); a pile of range-bounded shards, however contiguous, can
  // never prove there is nothing beyond the highest range.
  uint64_t end = 0;
  for (const IndexInterval& iv : merged.covered) {
    end = std::max(end, iv.second);
  }
  merged.gaps = IntervalGaps(merged.covered, end);
  if (state.any_complete && end > state.complete_end) {
    merged.warnings.push_back(
        "a shard covers indices beyond the exhaustion point " +
        std::to_string(state.complete_end) +
        " attested by a 'complete' shard; reports are inconsistent");
  }
  merged.complete = state.any_complete && merged.gaps.empty() && end > 0 &&
                    ContiguousPrefix(merged.covered) == end &&
                    merged.failed_indices.empty();

  if (merged.has_witness) {
    merged.verdict = "violated";
  } else if (merged.complete) {
    merged.verdict = "holds";
  } else {
    merged.verdict = "incomplete";
    if (!merged.gaps.empty()) {
      merged.warnings.push_back(
          "coverage has gaps (" + IntervalsToString(merged.gaps) +
          "); the union proves nothing about the uncovered indices");
    } else if (!state.any_complete) {
      merged.warnings.push_back(
          "no shard ran to enumerator exhaustion; the space beyond index " +
          std::to_string(end) + " is unexplored");
    } else if (!merged.failed_indices.empty()) {
      merged.warnings.push_back(
          std::to_string(merged.failed_indices.size()) +
          " index(es) failed hard and were skipped; their verdicts are "
          "unknown");
    }
  }
  return merged;
}

Result<MergeReport> MergeShards(const std::vector<ShardReport>& shards) {
  if (shards.empty()) {
    return Status::InvalidSpec("merge needs at least one shard report");
  }
  IncrementalMergeState state;
  for (const ShardReport& shard : shards) {
    WSV_RETURN_IF_ERROR(FoldShard(&state, shard));
  }
  return FinalizeMerge(state);
}

Status SaveMergeState(const std::string& path,
                      const IncrementalMergeState& state) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("kind").String("wsv-merge-state");
  w.Key("version").Int(1);
  w.Key("shards").Uint(state.shards);
  w.Key("fingerprint").String(state.fingerprint);
  w.Key("unit").String(state.unit);
  w.Key("sum_lengths").Uint(state.sum_lengths);
  w.Key("covered").BeginArray();
  for (const IndexInterval& iv : state.covered) {
    w.BeginArray().Uint(iv.first).Uint(iv.second).EndArray();
  }
  w.EndArray();
  w.Key("failed").BeginArray();
  for (uint64_t index : state.failed) w.Uint(index);
  w.EndArray();
  w.Key("any_complete").Bool(state.any_complete);
  w.Key("complete_end").Uint(state.complete_end);
  w.Key("has_witness").Bool(state.has_witness);
  if (state.has_witness) {
    w.Key("witness_db_index").Uint(state.witness_db_index);
    w.Key("witness_valuation_index").Uint(state.witness_valuation_index);
    w.Key("witness_shard").Uint(state.witness_shard);
    w.Key("witness_source").String(state.witness_source);
  }
  w.Key("warnings").BeginArray();
  for (const std::string& warning : state.warnings) w.String(warning);
  w.EndArray();
  w.EndObject();

  // The checkpoint writer's publish: a crashed merge never leaves a torn
  // state file for the next fold.
  return PublishDurably(path, w.str() + "\n", "merge state",
                        /*keep_backup=*/false, /*fault_site=*/nullptr);
}

Result<IncrementalMergeState> LoadMergeState(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open merge state: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  Result<obs::JsonValue> parsed = obs::JsonParse(text);
  if (!parsed.ok()) {
    return Status::ParseError("merge state '" + path +
                              "' is not valid JSON: " +
                              parsed.status().message());
  }
  const obs::JsonValue& doc = parsed.value();
  const obs::JsonValue* kind = doc.Find("kind");
  if (kind == nullptr || kind->AsString("") != "wsv-merge-state") {
    return Status::ParseError("'" + path + "' is not a merge state file");
  }
  IncrementalMergeState state;
  if (const obs::JsonValue* v = doc.Find("shards")) state.shards = v->AsUint(0);
  if (const obs::JsonValue* v = doc.Find("fingerprint")) {
    state.fingerprint = v->AsString("");
  }
  if (const obs::JsonValue* v = doc.Find("unit")) {
    state.unit = v->AsString("database");
  }
  if (const obs::JsonValue* v = doc.Find("sum_lengths")) {
    state.sum_lengths = v->AsUint(0);
  }
  if (const obs::JsonValue* covered = doc.Find("covered");
      covered != nullptr && covered->IsArray()) {
    for (const obs::JsonValue& iv : covered->array) {
      if (!iv.IsArray() || iv.array.size() != 2) {
        return Status::ParseError("merge state '" + path +
                                  "': covered entries must be [lo, hi]");
      }
      state.covered.push_back({iv.array[0].AsUint(0), iv.array[1].AsUint(0)});
    }
    state.covered = NormalizeIntervals(std::move(state.covered));
  }
  if (const obs::JsonValue* failed = doc.Find("failed");
      failed != nullptr && failed->IsArray()) {
    for (const obs::JsonValue& index : failed->array) {
      state.failed.push_back(index.AsUint(0));
    }
  }
  if (const obs::JsonValue* v = doc.Find("any_complete")) {
    state.any_complete = v->AsBool(false);
  }
  if (const obs::JsonValue* v = doc.Find("complete_end")) {
    state.complete_end = v->AsUint(0);
  }
  if (const obs::JsonValue* v = doc.Find("has_witness")) {
    state.has_witness = v->AsBool(false);
  }
  if (state.has_witness) {
    if (const obs::JsonValue* v = doc.Find("witness_db_index")) {
      state.witness_db_index = v->AsUint(0);
    }
    if (const obs::JsonValue* v = doc.Find("witness_valuation_index")) {
      state.witness_valuation_index = v->AsUint(0);
    }
    if (const obs::JsonValue* v = doc.Find("witness_shard")) {
      state.witness_shard = v->AsUint(0);
    }
    if (const obs::JsonValue* v = doc.Find("witness_source")) {
      state.witness_source = v->AsString("");
    }
  }
  if (const obs::JsonValue* warnings = doc.Find("warnings");
      warnings != nullptr && warnings->IsArray()) {
    for (const obs::JsonValue& warning : warnings->array) {
      state.warnings.push_back(warning.AsString(""));
    }
  }
  return state;
}

std::string RenderVerdictJson(int exit_code, const char* kind,
                              const VerificationResult* result,
                              const std::string& fingerprint) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("exit_code").Int(exit_code);
  if (kind != nullptr && result != nullptr) {
    const VerificationResult& r = *result;
    w.Key("kind").String(kind);
    if (!fingerprint.empty()) w.Key("fingerprint").String(fingerprint);
    w.Key("holds").Bool(r.holds);
    w.Key("complete").Bool(r.complete);
    w.Key("enumeration_count").Uint(r.enumeration_count);
    w.Key("counterexample").Bool(r.counterexample.has_value());
    if (r.counterexample.has_value()) {
      w.Key("witness_db_index").Uint(r.counterexample->database_index);
      w.Key("witness_valuation_index").Uint(r.counterexample->valuation_index);
    }
    w.Key("regime").BeginObject();
    w.Key("ok").Bool(r.regime.ok());
    w.Key("code").String(StatusCodeName(r.regime.code()));
    w.Key("message").String(r.regime.message());
    w.EndObject();
    w.Key("budget_exceeded")
        .Bool(r.regime.code() == StatusCode::kBudgetExceeded ||
              r.stats.search.budget_hits > 0);
    w.Key("coverage").BeginObject();
    w.Key("stop_reason").String(StopReasonName(r.coverage.stop_reason));
    w.Key("stop_code").String(StatusCodeName(r.coverage.stop_status.code()));
    w.Key("stop_message").String(r.coverage.stop_status.message());
    w.Key("completed_prefix").Uint(r.coverage.completed_prefix);
    w.Key("covered").BeginArray();
    for (const IndexInterval& iv : r.coverage.covered) {
      w.BeginArray().Uint(iv.first).Uint(iv.second).EndArray();
    }
    w.EndArray();
    w.Key("unit").String(r.coverage.unit);
    w.Key("range_lo").Uint(r.coverage.range_lo);
    w.Key("range_hi").Uint(r.coverage.range_hi);
    w.Key("databases_completed").Uint(r.stats.databases_checked);
    w.Key("failed_db_indices").BeginArray();
    for (size_t index : r.coverage.failed_db_indices) w.Uint(index);
    w.EndArray();
    w.Key("db_retries").Uint(r.coverage.db_retries);
    w.EndObject();
    w.Key("stats").BeginObject();
    w.Key("jobs").Uint(r.stats.jobs);
    w.Key("databases_checked").Uint(r.stats.databases_checked);
    w.Key("instances").Uint(r.stats.instances);
    w.Key("searches").Uint(r.stats.searches);
    w.Key("prefiltered").Uint(r.stats.prefiltered);
    w.Key("prefilter_memo_hits").Uint(r.stats.prefilter_memo_hits);
    w.Key("prefilter_memo_misses").Uint(r.stats.prefilter_memo_misses);
    w.Key("snapshots").Uint(r.stats.search.snapshots);
    w.Key("graph_transitions").Uint(r.stats.search.graph_transitions);
    w.Key("product_states").Uint(r.stats.search.product_states);
    w.Key("product_transitions").Uint(r.stats.search.transitions);
    w.Key("leaf_cache_hits").Uint(r.stats.search.leaf_cache_hits);
    w.Key("leaf_cache_misses").Uint(r.stats.search.leaf_cache_misses);
    w.Key("leaf_evals").Uint(r.stats.search.leaf_evals);
    w.Key("footprint_hits").Uint(r.stats.search.footprint_hits);
    w.Key("leaves").Uint(r.stats.search.leaves);
    w.Key("inner_searches").Uint(r.stats.search.inner_searches);
    w.Key("budget_hits").Uint(r.stats.search.budget_hits);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

int VerdictExitCode(const VerificationResult& result) {
  if (!result.holds) return 3;
  if (result.coverage.stop_reason == StopReason::kCanceled) return 130;
  return 0;
}

Result<ShardReport> ShardFromStatsJson(const std::string& json_text,
                                       const std::string& source) {
  WSV_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::JsonParse(json_text));
  ShardReport shard;
  shard.source = source;
  const obs::JsonValue* verdict = doc.Find("verdict");
  if (verdict == nullptr || !verdict->IsObject()) {
    return Status::ParseError("shard '" + source +
                              "': stats JSON has no verdict object (was the "
                              "run a verify/protocol/modular command?)");
  }
  if (const obs::JsonValue* fp = verdict->Find("fingerprint")) {
    shard.fingerprint = fp->AsString("");
  }
  if (const obs::JsonValue* kind = verdict->Find("kind"); kind == nullptr) {
    return Status::ParseError("shard '" + source +
                              "': verdict carries no result (the command "
                              "exited before verifying)");
  }
  shard.holds = verdict->Find("holds") != nullptr &&
                verdict->Find("holds")->AsBool(false);
  const obs::JsonValue* ce = verdict->Find("counterexample");
  shard.has_witness = ce != nullptr && ce->AsBool(false);
  if (shard.has_witness) {
    const obs::JsonValue* db = verdict->Find("witness_db_index");
    const obs::JsonValue* vi = verdict->Find("witness_valuation_index");
    if (db == nullptr || vi == nullptr) {
      return Status::ParseError("shard '" + source +
                                "': counterexample without witness indices");
    }
    shard.witness_db_index = db->AsUint(0);
    shard.witness_valuation_index = vi->AsUint(0);
  }
  const obs::JsonValue* cov = verdict->Find("coverage");
  if (cov == nullptr || !cov->IsObject()) {
    return Status::ParseError("shard '" + source +
                              "': verdict has no coverage block");
  }
  if (const obs::JsonValue* reason = cov->Find("stop_reason")) {
    shard.stop_reason = reason->AsString("complete");
  }
  if (const obs::JsonValue* unit = cov->Find("unit")) {
    shard.unit = unit->AsString("database");
  }
  if (const obs::JsonValue* lo = cov->Find("range_lo")) {
    shard.range_lo = lo->AsUint(0);
  }
  if (const obs::JsonValue* hi = cov->Find("range_hi")) {
    shard.range_hi = hi->AsUint(UINT64_MAX);
  }
  const obs::JsonValue* covered = cov->Find("covered");
  if (covered != nullptr && covered->IsArray()) {
    for (const obs::JsonValue& iv : covered->array) {
      if (!iv.IsArray() || iv.array.size() != 2) {
        return Status::ParseError("shard '" + source +
                                  "': coverage.covered entries must be "
                                  "[lo, hi] pairs");
      }
      shard.covered.push_back(
          {iv.array[0].AsUint(0), iv.array[1].AsUint(0)});
    }
  } else if (const obs::JsonValue* prefix = cov->Find("completed_prefix")) {
    // Pre-interval documents: lift the prefix, like the checkpoint reader.
    uint64_t p = prefix->AsUint(0);
    if (p > 0) shard.covered.push_back({0, p});
  }
  shard.covered = NormalizeIntervals(std::move(shard.covered));
  if (const obs::JsonValue* failed = cov->Find("failed_db_indices");
      failed != nullptr && failed->IsArray()) {
    for (const obs::JsonValue& index : failed->array) {
      shard.failed_indices.push_back(index.AsUint(0));
    }
  }
  return shard;
}

Status ApplyCheckpoint(const std::string& checkpoint_path,
                       ShardReport* shard) {
  WSV_ASSIGN_OR_RETURN(
      RecoveredCheckpoint loaded,
      ReadCheckpointWithRecovery(checkpoint_path, shard->fingerprint));
  Checkpoint cp = std::move(loaded.checkpoint);
  if (shard->fingerprint.empty()) shard->fingerprint = cp.fingerprint;
  if (cp.unit != shard->unit) {
    return Status::InvalidSpec("checkpoint '" + checkpoint_path +
                               "' covers unit '" + cp.unit +
                               "' but the shard's verdict covers '" +
                               shard->unit + "'");
  }
  for (const IndexInterval& iv : cp.covered) {
    AddInterval(&shard->covered, iv.first, iv.second);
  }
  for (uint64_t index : cp.failed_indices) {
    shard->failed_indices.push_back(index);
  }
  std::sort(shard->failed_indices.begin(), shard->failed_indices.end());
  shard->failed_indices.erase(
      std::unique(shard->failed_indices.begin(), shard->failed_indices.end()),
      shard->failed_indices.end());
  return Status::Ok();
}

std::string RenderMergeJson(const MergeReport& report, int exit_code) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("exit_code").Int(exit_code);
  w.Key("kind").String("merge");
  w.Key("verdict").String(report.verdict);
  w.Key("holds").Bool(report.verdict == "holds");
  w.Key("complete").Bool(report.complete);
  w.Key("counterexample").Bool(report.has_witness);
  if (report.has_witness) {
    w.Key("witness_db_index").Uint(report.witness_db_index);
    w.Key("witness_valuation_index").Uint(report.witness_valuation_index);
    w.Key("witness_shard").Uint(report.witness_shard);
  }
  if (!report.fingerprint.empty()) {
    w.Key("fingerprint").String(report.fingerprint);
  }
  w.Key("coverage").BeginObject();
  w.Key("unit").String(report.unit);
  w.Key("covered").BeginArray();
  for (const IndexInterval& iv : report.covered) {
    w.BeginArray().Uint(iv.first).Uint(iv.second).EndArray();
  }
  w.EndArray();
  w.Key("completed_prefix").Uint(ContiguousPrefix(report.covered));
  w.Key("gaps").BeginArray();
  for (const IndexInterval& iv : report.gaps) {
    w.BeginArray().Uint(iv.first).Uint(iv.second).EndArray();
  }
  w.EndArray();
  w.Key("overlap").Uint(report.overlap);
  w.Key("failed_db_indices").BeginArray();
  for (uint64_t index : report.failed_indices) w.Uint(index);
  w.EndArray();
  w.EndObject();
  w.Key("warnings").BeginArray();
  for (const std::string& warning : report.warnings) w.String(warning);
  w.EndArray();
  w.EndObject();
  return w.Take();
}

int MergeExitCode(const MergeReport& report) {
  if (report.verdict == "violated") return 3;
  if (report.verdict == "holds") return 0;
  return 4;
}

namespace {

/// Accumulated histogram across shards: counts bucket-wise summed, min of
/// mins / max of maxes over the shards that actually observed samples.
struct HistAccum {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = std::numeric_limits<uint64_t>::max();
  uint64_t max = 0;
  std::vector<uint64_t> buckets;
};

/// Per-shard digest for the straggler table. Wall is the shard's "total"
/// phase (the main thread's root, present whenever timing was on);
/// utilization and exec/lock-wait come from its worker ledgers.
struct ShardDigest {
  std::string source;
  uint64_t wall_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t worker_wall_ns = 0;
  uint64_t workers = 0;
};

}  // namespace

std::string RenderShardStatsRollup(
    const std::vector<std::string>& stats_texts,
    const std::vector<std::string>& sources) {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, obs::PhaseTreeEntry> phases;  // summed per path
  std::map<std::string, HistAccum> histograms;
  std::vector<ShardDigest> digests;
  std::vector<double> worker_utilizations;
  uint64_t total_exec_ns = 0;
  uint64_t total_worker_wall_ns = 0;

  for (size_t i = 0; i < stats_texts.size(); ++i) {
    Result<obs::JsonValue> parsed = obs::JsonParse(stats_texts[i]);
    if (!parsed.ok()) continue;  // verdict merge already reported it
    const obs::JsonValue& doc = parsed.value();

    ShardDigest digest;
    digest.source = i < sources.size() ? sources[i] : "shard." + std::to_string(i);

    const obs::JsonValue* shard_counters = doc.Find("counters");
    if (shard_counters != nullptr && shard_counters->IsObject()) {
      for (const auto& [name, value] : shard_counters->object) {
        counters[name] += value.AsUint(0);
      }
    }
    const obs::JsonValue* shard_phases = doc.Find("phases");
    if (shard_phases != nullptr && shard_phases->IsArray()) {
      for (const obs::JsonValue& entry : shard_phases->array) {
        const obs::JsonValue* path = entry.Find("path");
        if (path == nullptr || path->kind != obs::JsonValue::Kind::kString) {
          continue;
        }
        uint64_t total = 0;
        if (const obs::JsonValue* v = entry.Find("total_ns")) {
          total = v->AsUint(0);
        }
        if (path->string == "total") digest.wall_ns = total;
        obs::PhaseTreeEntry& accum = phases[path->string];
        accum.path = path->string;
        accum.total_ns += total;
        if (const obs::JsonValue* v = entry.Find("self_ns")) {
          accum.self_ns += v->AsUint(0);
        }
        if (const obs::JsonValue* v = entry.Find("count")) {
          accum.count += v->AsUint(0);
        }
      }
    }
    const obs::JsonValue* shard_hists = doc.Find("histograms");
    if (shard_hists != nullptr && shard_hists->IsObject()) {
      for (const auto& [name, value] : shard_hists->object) {
        HistAccum& accum = histograms[name];
        uint64_t count = 0;
        if (const obs::JsonValue* v = value.Find("count")) count = v->AsUint(0);
        accum.count += count;
        if (const obs::JsonValue* v = value.Find("sum")) {
          accum.sum += v->AsUint(0);
        }
        if (count > 0) {
          if (const obs::JsonValue* v = value.Find("min")) {
            accum.min = std::min(accum.min, v->AsUint(accum.min));
          }
          if (const obs::JsonValue* v = value.Find("max")) {
            accum.max = std::max(accum.max, v->AsUint(0));
          }
        }
        const obs::JsonValue* buckets = value.Find("buckets");
        if (buckets != nullptr && buckets->IsArray()) {
          if (accum.buckets.size() < buckets->array.size()) {
            accum.buckets.resize(buckets->array.size(), 0);
          }
          for (size_t b = 0; b < buckets->array.size(); ++b) {
            accum.buckets[b] += buckets->array[b].AsUint(0);
          }
        }
      }
    }
    const obs::JsonValue* workers = doc.Find("workers");
    if (workers != nullptr && workers->IsObject()) {
      for (const auto& [name, ledger] : workers->object) {
        (void)name;
        uint64_t wall = 0, exec = 0, lock_wait = 0;
        if (const obs::JsonValue* v = ledger.Find("wall_ns")) wall = v->AsUint(0);
        if (const obs::JsonValue* v = ledger.Find("exec_ns")) exec = v->AsUint(0);
        if (const obs::JsonValue* v = ledger.Find("lock_wait_ns")) {
          lock_wait = v->AsUint(0);
        }
        digest.workers += 1;
        digest.worker_wall_ns += wall;
        digest.exec_ns += exec;
        digest.lock_wait_ns += lock_wait;
        if (wall > 0) {
          worker_utilizations.push_back(static_cast<double>(exec) /
                                        static_cast<double>(wall));
        }
      }
    }
    total_exec_ns += digest.exec_ns;
    total_worker_wall_ns += digest.worker_wall_ns;
    if (digest.wall_ns == 0) digest.wall_ns = digest.worker_wall_ns;
    digests.push_back(std::move(digest));
  }

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("count").Uint(digests.size());

  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) w.Key(name).Uint(value);
  w.EndObject();

  std::vector<obs::PhaseTreeEntry> phase_rows;
  for (const auto& [path, entry] : phases) phase_rows.push_back(entry);
  w.Key("phases");
  obs::WritePhaseEntries(w, phase_rows);

  w.Key("histograms").BeginObject();
  for (const auto& [name, accum] : histograms) {
    w.Key(name).BeginObject();
    w.Key("count").Uint(accum.count);
    w.Key("sum").Uint(accum.sum);
    w.Key("min").Uint(accum.count > 0 ? accum.min : 0);
    w.Key("max").Uint(accum.max);
    w.Key("buckets").BeginArray();
    for (uint64_t bucket : accum.buckets) w.Uint(bucket);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  // Utilization over every worker of every shard: the mean is exec-weighted
  // (total exec / total worker wall), min/max are per-worker extremes.
  w.Key("utilization").BeginObject();
  w.Key("workers").Uint(worker_utilizations.size());
  double mean = total_worker_wall_ns > 0
                    ? static_cast<double>(total_exec_ns) /
                          static_cast<double>(total_worker_wall_ns)
                    : 0.0;
  double lo = 0.0, hi = 0.0;
  if (!worker_utilizations.empty()) {
    auto [min_it, max_it] = std::minmax_element(worker_utilizations.begin(),
                                                worker_utilizations.end());
    lo = *min_it;
    hi = *max_it;
  }
  w.Key("mean").Double(mean);
  w.Key("min").Double(lo);
  w.Key("max").Double(hi);
  w.EndObject();

  // Per-shard table, merge-input order, and the straggler: the shard whose
  // wall clock bounds the whole sweep's latency.
  w.Key("per_shard").BeginArray();
  size_t straggler = digests.size();
  for (size_t i = 0; i < digests.size(); ++i) {
    const ShardDigest& digest = digests[i];
    if (straggler == digests.size() ||
        digest.wall_ns > digests[straggler].wall_ns) {
      straggler = i;
    }
    w.BeginObject();
    w.Key("source").String(digest.source);
    w.Key("wall_ns").Uint(digest.wall_ns);
    w.Key("exec_ns").Uint(digest.exec_ns);
    w.Key("lock_wait_ns").Uint(digest.lock_wait_ns);
    w.Key("workers").Uint(digest.workers);
    w.Key("utilization")
        .Double(digest.worker_wall_ns > 0
                    ? static_cast<double>(digest.exec_ns) /
                          static_cast<double>(digest.worker_wall_ns)
                    : 0.0);
    w.EndObject();
  }
  w.EndArray();
  if (straggler < digests.size()) {
    w.Key("straggler").BeginObject();
    w.Key("source").String(digests[straggler].source);
    w.Key("wall_ns").Uint(digests[straggler].wall_ns);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

}  // namespace wsv::verifier
