#ifndef WSVERIFY_VERIFIER_VERIFIER_H_
#define WSVERIFY_VERIFIER_VERIFIER_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "ltl/property.h"
#include "spec/composition.h"
#include "verifier/engine.h"
#include "verifier/product_search.h"

namespace wsv::verifier {

/// Options shared by all three verifiers (Verifier, ProtocolVerifier and
/// ModularVerifier): the engine's options (see EngineOptions for the
/// semantics of every sweep, range, budget, robustness and checkpoint field)
/// plus the pseudo-domain choice and the pinned databases.
struct VerifierOptions : EngineOptions {
  /// Number of fresh pseudo-domain elements added beyond the specification
  /// and property constants. 0 selects SufficientFreshDomainSize() — the
  /// theoretically complete (often large) bound; small explicit values give
  /// bounded verification: a reported counterexample is always real, while
  /// "holds" is relative to the explored domain size.
  size_t fresh_domain_size = 2;

  /// Verify against these databases only (one per peer, by constant
  /// spellings), instead of enumerating all databases over the
  /// pseudo-domain. Enables valuation_range_lo/hi sharding.
  std::optional<std::vector<NamedDatabase>> fixed_databases;
};

/// A violating run: the database choice, the property-variable valuation,
/// and the lasso-shaped run (Section 2's runs are infinite; the witness is
/// finitely presented as prefix + cycle).
struct Counterexample {
  std::vector<data::Instance> databases;
  std::vector<std::string> closure_valuation;  // constant spellings
  LassoWitness lasso;
  /// Position of the witness database in enumeration order; identical
  /// across serial and parallel sweeps (SIZE_MAX for fixed databases only
  /// when no enumeration happened — then it is 0).
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
};

/// How much of the deterministic database enumeration a run covered and why
/// it stopped — the resumable-progress record of the verdict. A violation is
/// sound regardless of coverage; "holds" is only as strong as the covered
/// prefix.
struct Coverage {
  /// Why the run ended (kComplete when nothing cut it short).
  StopReason stop_reason = StopReason::kComplete;
  /// The stop's status (budget/deadline/cancel/db-failure detail); OK when
  /// stop_reason == kComplete.
  Status stop_status = Status::Ok();
  /// Every database index in [0, completed_prefix) was checked or recorded
  /// as failed (deterministic enumeration order; includes resumed prefixes).
  /// For a --db-range shard the contiguous run starts at the range's lower
  /// bound instead of 0 — `covered` is the authoritative record.
  size_t completed_prefix = 0;
  /// Disjoint covered intervals of the enumeration (absolute half-open
  /// indices, normalized); capped below the witness on a violation. This is
  /// what wsvc-merge unions across shards.
  std::vector<IndexInterval> covered;
  /// What `covered` indexes: "database" (sweeps) or "valuation"
  /// (pinned-database runs).
  std::string unit = "database";
  /// The slice this run was assigned ([0, SIZE_MAX) when unsharded) — the
  /// denominator of per-shard coverage reporting.
  size_t range_lo = 0;
  size_t range_hi = static_cast<size_t>(-1);
  /// Indices whose checks failed hard and were skipped (sorted).
  std::vector<size_t> failed_db_indices;
  /// Per-database check retries the fault-isolated sweep performed.
  size_t db_retries = 0;
};

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
  /// Count-only mode (VerifierOptions::count_only): the size of the full
  /// enumeration space; zero otherwise.
  size_t enumeration_count = 0;
};

/// Fills the automaton and leaves of a verifier's SymbolicTask. It runs
/// after the pinned databases joined the pseudo-domain `domain`; spellings
/// the automaton needs beyond it go into `interner`.
using TaskBuilder = std::function<Status(
    Interner& interner, const data::Domain& domain, SymbolicTask& task)>;

/// The engine call shared by Verifier, ProtocolVerifier and ModularVerifier.
/// Resolves options.fresh_domain_size == 0 to SufficientFreshDomainSize
/// (counting `closure_variables`), builds the pseudo-domain of the spec
/// constants plus `constants` into `*pd`, materializes the pinned databases,
/// lets `build` fill the task, runs the engine on `options` and converts its
/// outcome. `regime` is the caller's decidability classification; only a
/// caller passing `may_be_complete` can report a complete verdict.
Result<VerificationResult> RunVerification(
    const spec::Composition& comp, const VerifierOptions& options,
    const std::set<std::string>& constants,
    std::vector<std::string> closure_variables, Status regime,
    bool may_be_complete, const TaskBuilder& build, PseudoDomain* pd);

/// Sound-and-complete verifier for input-bounded compositions with bounded
/// lossy queues (Theorem 3.4), implemented by pseudo-domain reduction +
/// explicit on-the-fly Büchi product search (DESIGN.md §5).
class Verifier {
 public:
  /// `comp` must be validated and outlive the verifier.
  explicit Verifier(const spec::Composition* comp,
                    VerifierOptions options = {});

  /// Classifies the (composition, property, semantics) instance against the
  /// paper's decidability map; returns OK inside Theorem 3.4's class and an
  /// explanatory kUndecidableRegime status outside it.
  Status CheckDecidableRegime(const ltl::Property& property) const;

  /// Verifies `property` against all runs of the composition.
  Result<VerificationResult> Verify(const ltl::Property& property);

  /// The interner used for the last Verify call (constants + fresh
  /// pseudo-domain elements); needed to render counterexamples.
  const Interner& interner() const { return pd_.interner; }
  const data::Domain& domain() const { return pd_.domain; }

 private:
  const spec::Composition* comp_;
  VerifierOptions options_;
  PseudoDomain pd_;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_VERIFIER_H_
