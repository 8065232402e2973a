#ifndef WSVERIFY_VERIFIER_ENGINE_H_
#define WSVERIFY_VERIFIER_ENGINE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "automata/buchi.h"
#include "common/interner.h"
#include "common/run_control.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/instance.h"
#include "data/value.h"
#include "fo/formula.h"
#include "runtime/run_options.h"
#include "spec/composition.h"
#include "verifier/checkpoint.h"
#include "verifier/product_search.h"

namespace wsv::verifier {

/// The valuation set |domain|^num_vars as an indexed generator instead of a
/// materialized list: index i mixed-radix decodes to one assignment of the
/// closure variables (position 0 is the least-significant digit, matching
/// the historical enumeration order), so memory stays O(1) regardless of
/// the instance count and the index doubles as the deterministic witness /
/// checkpoint key for parallel valuation sweeps.
class ValuationSpace {
 public:
  /// Zero variables: the single empty valuation (index 0).
  ValuationSpace() = default;

  /// Copies the domain's values and spellings, so the space stays valid
  /// independent of the interner's lifetime.
  ValuationSpace(const data::Domain& domain, const Interner& interner,
                 size_t num_vars);

  size_t num_vars() const { return num_vars_; }
  /// |domain|^num_vars, saturated at SIZE_MAX; 0 iff the domain is empty
  /// and num_vars > 0.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The domain in digit order: index digit d at position p means
  /// "closure variable p takes values()[d]".
  const std::vector<data::Value>& values() const { return values_; }

  /// Decodes valuation `index` as interned values, aligned with the
  /// closure-variable order. `out` is overwritten (reuse it across calls to
  /// avoid reallocation).
  void DecodeValues(size_t index, std::vector<data::Value>* out) const;

  /// Decodes valuation `index` as constant spellings (the witness-label /
  /// rendering form) into `*out`, reusing its capacity — the form the
  /// fan-out loop uses with a per-lane scratch buffer.
  void DecodeSpellings(size_t index, std::vector<std::string>* out) const;

  /// Allocating convenience form of the above.
  std::vector<std::string> DecodeSpellings(size_t index) const;

 private:
  std::vector<data::Value> values_;
  std::vector<std::string> spellings_;
  size_t num_vars_ = 0;
  size_t size_ = 1;
};

/// A symbolic verification task: one Büchi automaton accepting exactly the
/// violating runs, whose propositions are *open* FO formulas (leaves) over
/// the composition schema with free variables among `closure_variables`.
/// Each index of `valuations` instantiates the closure variables; the
/// automaton is shared across all instances, and per-snapshot leaf
/// satisfaction is computed once (relationally) and looked up per instance.
///
/// Verifier (LTL-FO, Theorem 3.4), ProtocolVerifier (Theorems 4.2/4.5) and
/// ModularVerifier (Theorem 5.4) all lower to this shape.
struct SymbolicTask {
  automata::BuchiAutomaton automaton{0};
  /// Proposition table: leaves[i] is the FO formula of PropId i.
  std::vector<fo::FormulaPtr> leaves;
  /// Universal-closure variables (substitution order of `valuations`).
  std::vector<std::string> closure_variables;
  /// The instance space (one instance per valuation index). The default
  /// space is the single empty valuation for tasks without closure
  /// variables.
  ValuationSpace valuations;
};

/// A database given by constant spellings: relation name -> tuples of
/// spellings. Used to pin verification to concrete databases (the verifier
/// interns the spellings into its pseudo-domain).
using NamedDatabase =
    std::map<std::string, std::vector<std::vector<std::string>>>;

/// Materializes one NamedDatabase per peer into instances over `interner`,
/// interning unseen spellings and adding them to `domain`.
Result<std::vector<data::Instance>> MaterializeDatabases(
    const spec::Composition& comp, const std::vector<NamedDatabase>& named,
    Interner& interner, data::Domain& domain);

/// The pseudo-domain of a verification task: every specification constant
/// plus `fresh_count` fresh elements (spelled "#1", "#2", ...).
struct PseudoDomain {
  Interner interner;
  data::Domain domain;
  std::vector<data::Value> fresh;
};

/// Builds the pseudo-domain for `comp` with the given extra constants (from
/// the property / protocol / environment spec).
PseudoDomain BuildPseudoDomain(const spec::Composition& comp,
                               const std::set<std::string>& extra_constants,
                               size_t fresh_count);

/// How the sweep treats a database whose check fails hard (an exception
/// such as std::bad_alloc, or a non-budget error status).
enum class OnDbError {
  /// Retry the database once; if it fails again, abort the whole sweep
  /// and surface the error.
  kAbort,
  /// Retry the database once; if it fails again, record its index in the
  /// outcome's failed list and keep sweeping. A clean pass then degrades to
  /// a bounded verdict (StopReason::kDbFailures); a found violation is
  /// still a sound VIOLATION.
  kSkip,
};

struct EngineOptions {
  /// Communication semantics (queue bound, lossy channels, ...).
  runtime::RunOptions run;
  /// Enumerate databases up to isomorphism (permutations of the fresh
  /// elements); sound and complete because FO rules are generic.
  bool iso_reduction = true;
  /// Exclusive bound on the enumeration in ABSOLUTE canonical indices:
  /// databases with index >= max_databases are never dispatched, counted
  /// from index 0 regardless of any resume offset or range lower bound.
  size_t max_databases = static_cast<size_t>(-1);
  /// Absolute half-open slice [db_range_lo, db_range_hi) of the canonical
  /// database enumeration this run checks — one shard's work unit. The
  /// defaults cover the whole enumeration. A sweep cut short by the upper
  /// bound (with more databases beyond it) stops with StopReason::kRangeEnd;
  /// a sweep whose enumerator is exhausted inside the range stops kComplete,
  /// which is the attestation a merge needs that the space ends in-range.
  size_t db_range_lo = 0;
  size_t db_range_hi = static_cast<size_t>(-1);
  /// Half-open slice of the valuation space, legal only on pinned-database
  /// runs (a valuation shard); Run() rejects it on database sweeps — those
  /// shard with db_range instead.
  size_t valuation_range_lo = 0;
  size_t valuation_range_hi = static_cast<size_t>(-1);
  /// Walk the enumeration without checking anything and report its size in
  /// EngineOutcome::enumeration_count (canonical databases, or valuations
  /// when the databases are pinned). Shard coordinators use this to split
  /// ranges evenly.
  bool count_only = false;
  /// Per-search state cap.
  SearchBudget budget;
  /// Global worker budget for the two-level scheduler: the calling thread
  /// plus jobs - 1 helpers (default 1: no helpers); 0 = hardware
  /// concurrency. One shared ThreadPool feeds both levels — whole
  /// databases in the across-database sweep AND, within each database, the
  /// graph exploration, leaf sealing and valuation fan-out — so N is a cap
  /// with no oversubscription. Every level runs one code path at every job
  /// count, so the verdict, witness database/valuation indices, label and
  /// lasso never depend on it (aggregate statistics such as
  /// databases_checked may exceed the jobs-1 ones — see ParallelSweep).
  size_t jobs = 1;

  /// Deadline/cancellation token polled by every pipeline loop (not owned;
  /// may be null). A stop ends the run with a partial outcome: stop_reason
  /// kDeadline / kCanceled, covering the completed database prefix.
  RunControl* control = nullptr;
  /// Fault isolation policy for per-database check failures in the sweep.
  OnDbError on_db_error = OnDbError::kAbort;

  /// When non-empty, the sweep persists progress checkpoints here (atomic
  /// temp-file + rename) every `checkpoint_every` completed databases and
  /// once more when the sweep ends, stamped with `checkpoint_fingerprint`
  /// verbatim (validating it against a loaded checkpoint is the caller's
  /// job).
  std::string checkpoint_path;
  std::string checkpoint_fingerprint;
  size_t checkpoint_every = 64;
  /// Resume support: coverage intervals inherited from a resumed
  /// checkpoint (absolute indices); unioned into the outcome's covered set
  /// and into persisted checkpoints. Dispatch starts at
  /// ResumeStart(resume_covered, db_range_lo), skipping the covered run
  /// containing the range start (the enumerator still walks it so indices
  /// stay aligned with an uninterrupted run).
  std::vector<IndexInterval> resume_covered;
  /// Indices inside the skipped run that a previous run failed and
  /// skipped; carried into the outcome's failed list.
  std::vector<size_t> resume_failed;
};

/// Outcome of an engine run; the caller wraps it into the public
/// VerificationResult types.
struct EngineOutcome {
  bool violation_found = false;
  /// Set when violation_found.
  std::vector<data::Instance> databases;
  std::vector<std::string> label;
  LassoWitness lasso;
  /// Position of the witness database in enumeration order (SIZE_MAX when
  /// no violation). The same at every job count.
  size_t violation_db_index = static_cast<size_t>(-1);
  /// Index of the witness valuation in ValuationSpace order (SIZE_MAX when
  /// no violation). The same at every job count: the reported witness is
  /// always the lowest-index one.
  size_t violation_valuation_index = static_cast<size_t>(-1);

  /// Worker threads the sweep actually ran with (EngineOptions::jobs after
  /// resolving 0 to the hardware concurrency).
  size_t jobs = 1;

  size_t databases_checked = 0;
  size_t searches = 0;
  /// Instances discharged by the rigid-proposition emptiness prefilter
  /// without a state-space search.
  size_t prefiltered = 0;
  /// Prefilter memo lookups, one per checked valuation: distinct
  /// truth-status vectors computed (once per run, shared by every database)
  /// versus reused across valuations and databases.
  size_t prefilter_memo_misses = 0;
  size_t prefilter_memo_hits = 0;
  SearchStats search_stats;
  /// Why the run is not complete: budget exhaustion (kBudgetExceeded),
  /// deadline (kDeadlineExceeded), cancellation (kCanceled) or skipped
  /// database failures (kPartialFailure). OK when stop_reason == kComplete.
  /// Generalizes the old budget_status field.
  Status stop_status = Status::Ok();
  /// stop_status, classified (kComplete / kBudget / kDeadline / kCanceled /
  /// kDbFailures).
  StopReason stop_reason = StopReason::kComplete;
  /// High-water mark of the contiguous completed run starting at the
  /// dispatch origin (the resume/range start; index 0 for a whole-space
  /// run): every index from the origin up to here was checked or recorded
  /// as failed. Includes any resumed prefix.
  size_t completed_prefix = 0;
  /// Disjoint covered intervals of the enumeration order (absolute
  /// half-open indices, normalized), including resumed coverage; capped
  /// below the witness when a violation is found, mirroring the persisted
  /// checkpoint so a resume re-finds the witness. Unit: coverage_unit.
  std::vector<IndexInterval> covered;
  /// What `covered` indexes: "database" for sweeps, "valuation" for
  /// pinned-database runs.
  std::string coverage_unit = "database";
  /// Count-only mode (EngineOptions::count_only): the size of the full
  /// enumeration space; zero otherwise.
  size_t enumeration_count = 0;
  /// Indices whose checks failed hard and were skipped (OnDbError::kSkip),
  /// sorted; includes EngineOptions::resume_failed.
  std::vector<size_t> failed_db_indices;
  /// Per-database check retries performed by the fault-isolated sweep.
  size_t db_retries = 0;
};

/// Runs the symbolic task against every database over the pseudo-domain
/// (canonical representatives only, when iso_reduction), stopping at the
/// first violation. Per database: the configuration graph is explored once
/// and shared by all instances; instances whose automaton is empty after
/// fixing the database-rigid propositions are skipped without search.
///
/// With options.jobs > 1 the sweep runs on a worker pool (ParallelSweep):
/// each worker checks whole databases against its private accumulators;
/// the task, composition, interner and domain are shared read-only.
class VerificationEngine {
 public:
  /// `comp` and `interner` must outlive the engine. `fresh` are the
  /// pseudo-domain elements permutations may move. With `fixed_databases`
  /// (one instance per peer) the run checks those databases only instead
  /// of enumerating.
  VerificationEngine(
      const spec::Composition* comp, const Interner* interner,
      data::Domain domain, std::vector<data::Value> fresh,
      EngineOptions options,
      std::optional<std::vector<data::Instance>> fixed_databases);

  Result<EngineOutcome> Run(SymbolicTask& task);

 private:
  /// The task-invariant state of one run, built once by Run() and shared
  /// by every CheckDatabases call (see engine.cc).
  struct RunState;
  /// One valuation instance of the chunked fan-out (see engine.cc).
  struct ValuationLane;
  struct ValuationContext;

  /// The per-database checking step of the sweep: explores the
  /// configuration graph for `dbs` and runs every task instance against it,
  /// accumulating into `outcome`. Returns true when a witness was recorded
  /// (outcome.databases/label/lasso; the caller assigns the index).
  /// `db_index` labels the trace span. Thread-safe for concurrent calls
  /// with distinct `outcome` objects.
  Result<bool> CheckDatabases(RunState& run,
                              const std::vector<data::Instance>& dbs,
                              size_t db_index, EngineOutcome& outcome);
  Result<bool> CheckOneValuation(const ValuationContext& ctx, size_t index,
                                 ValuationLane& lane);

  const spec::Composition* comp_;
  const Interner* interner_;
  data::Domain domain_;
  std::vector<data::Value> fresh_;
  EngineOptions options_;
  std::optional<std::vector<data::Instance>> fixed_databases_;
  /// The run's scheduler: set by Run() for the duration of a pinned run or
  /// a sweep (borrowed, never owned here), consumed by CheckDatabases for
  /// graph exploration, leaf sealing and valuation fan-out. lanes_ is the
  /// global --jobs budget (the caller + jobs - 1 pool helpers).
  ThreadPool* pool_ = nullptr;
  size_t lanes_ = 1;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_ENGINE_H_
