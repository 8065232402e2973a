#ifndef WSVERIFY_VERIFIER_RESULT_H_
#define WSVERIFY_VERIFIER_RESULT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/run_control.h"
#include "common/status.h"
#include "data/instance.h"
#include "verifier/checkpoint.h"
#include "verifier/product_search.h"

namespace wsv::spec {
class Composition;
}  // namespace wsv::spec

namespace wsv::verifier {

/// A violating run: the database choice, the property-variable valuation,
/// and the lasso-shaped run (Section 2's runs are infinite; the witness is
/// finitely presented as prefix + cycle).
struct Counterexample {
  std::vector<data::Instance> databases;
  std::vector<std::string> closure_valuation;  // constant spellings
  LassoWitness lasso;
  /// Position of the witness database in enumeration order (0 for pinned
  /// databases); identical across serial and parallel sweeps.
  size_t database_index = 0;
  /// Index of the witness valuation in ValuationSpace order (the
  /// mixed-radix encoding of closure_valuation); identical across serial
  /// and parallel valuation fan-outs.
  size_t valuation_index = 0;

  std::string ToString(const spec::Composition& comp,
                       const Interner& interner) const;
};

/// A run's totals. `databases_checked` and `instances` equal the
/// `engine.*` counters of the same name. The valuation tallies
/// (`searches`, `prefiltered`, `prefilter_memo_*`) count the valuations the
/// run checked; at jobs > 1 a violated run also checks some valuations past
/// the witness before the stop lands, so there they vary from run to run.
struct VerificationStats {
  size_t databases_checked = 0;
  /// Property instances: the size of the valuation space of the universal
  /// closure, checked per database (the checked valuations are counted by
  /// `engine.valuations_checked`).
  size_t instances = 0;
  /// `instances` under its former name, still read by
  /// perfbench/perfbench.cc; goes with the next change to the benchmark.
  size_t valuations_checked = 0;
  /// Product searches run: valuations neither prefiltered nor served by
  /// the search memo.
  size_t searches = 0;
  /// Valuations discharged by the prefilter without a product search.
  size_t prefiltered = 0;
  /// Prefilter memo lookups, one per checked valuation: truth-status keys
  /// built (once per run) versus reused across valuations and databases.
  size_t prefilter_memo_misses = 0;
  size_t prefilter_memo_hits = 0;
  /// Worker threads the database sweep ran with (after resolving jobs=0 to
  /// the hardware concurrency).
  size_t jobs = 1;
  SearchStats search;

  /// Sums the tallies of a valuation lane or a sweep worker into this
  /// record; `instances`, `valuations_checked` and `jobs` describe the run,
  /// not a share of it, and are left alone.
  void Add(const VerificationStats& other) {
    databases_checked += other.databases_checked;
    searches += other.searches;
    prefiltered += other.prefiltered;
    prefilter_memo_misses += other.prefilter_memo_misses;
    prefilter_memo_hits += other.prefilter_memo_hits;
    search.Add(other.search);
  }
};

/// How much of the run's enumeration (databases on a sweep, valuations on a
/// pinned-database run) it covered and why it stopped — the resumable
/// progress record of the verdict. A violation is sound regardless of
/// coverage; "holds" is only as strong as the covered indices.
struct Coverage {
  /// Why the run ended (kComplete when nothing cut it short).
  StopReason stop_reason = StopReason::kComplete;
  /// The stop's status (budget/deadline/cancel/db-failure detail); OK when
  /// stop_reason == kComplete.
  Status stop_status = Status::Ok();
  /// High-water mark of the contiguous completed run starting at the
  /// dispatch origin (the resume/range start; index 0 for a whole-space
  /// sweep; 1 for a pinned run that finished its database): every database
  /// from the origin up to here was checked or recorded as failed.
  /// `covered` is the authoritative record.
  size_t completed_prefix = 0;
  /// Disjoint covered intervals of the enumeration (absolute half-open
  /// indices, normalized), including resumed coverage; capped below the
  /// witness on a violation, so a resume (or a merge of shard checkpoints)
  /// re-finds it. This is what wsvc-merge unions across shards.
  std::vector<IndexInterval> covered;
  /// What `covered` and the range index: "database" (sweeps) or
  /// "valuation" (pinned-database runs).
  std::string unit = "database";
  /// The slice this run was assigned (EngineOptions::range_lo/hi; [0,
  /// SIZE_MAX) when unsharded) — the denominator of per-shard coverage.
  size_t range_lo = 0;
  size_t range_hi = static_cast<size_t>(-1);
  /// Indices whose checks failed hard and were skipped (sorted; includes
  /// EngineOptions::resume_failed).
  std::vector<size_t> failed_db_indices;
  /// Per-database check retries the fault-isolated sweep performed.
  size_t db_retries = 0;
};

/// The verdict of one run. VerificationEngine::Run fills everything but
/// `regime` and `complete`, which RunVerification adds.
struct VerificationResult {
  /// Property satisfied over the explored space.
  bool holds = false;
  std::optional<Counterexample> counterexample;
  VerificationStats stats;
  /// Enumeration coverage and stop reason of this run.
  Coverage coverage;
  /// OK when the instance lies in the decidable class of Theorem 3.4
  /// (input-bounded composition & property, bounded lossy queues, closed
  /// composition); otherwise records the crossed boundary and the verdict is
  /// sound only for the explored bounds.
  Status regime = Status::Ok();
  /// True when the verdict is complete: decidable regime, the pseudo-domain
  /// met the sufficient bound, and no budget cap was hit.
  bool complete = false;
  /// Count-only mode (EngineOptions::count_only): the size of the full
  /// enumeration space; zero otherwise.
  size_t enumeration_count = 0;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_RESULT_H_
