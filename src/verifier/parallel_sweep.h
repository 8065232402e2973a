#ifndef WSVERIFY_VERIFIER_PARALLEL_SWEEP_H_
#define WSVERIFY_VERIFIER_PARALLEL_SWEEP_H_

#include <functional>
#include <vector>

#include "common/run_control.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/instance.h"
#include "verifier/db_enum.h"
#include "verifier/engine.h"

namespace wsv::verifier {

/// Configuration of one database sweep (every job count runs the same
/// code: jobs == 1 is the same fan-out with no helper lanes).
struct SweepOptions {
  /// Lane count, the caller included; must be >= 1 (resolve 0 before
  /// constructing).
  size_t jobs = 1;
  /// Scheduler for the helper lanes (borrowed, not owned; must have at
  /// least `jobs - 1` threads). Null = the sweep creates a private pool of
  /// `jobs - 1` threads (none at jobs 1). The engine passes its shared pool
  /// here so database lanes and within-database fan-out draw from one
  /// global --jobs budget.
  ThreadPool* pool = nullptr;
  size_t max_databases = static_cast<size_t>(-1);
  /// Resume offset: databases [0, start_index) are fast-forwarded without
  /// checking (the enumerator still walks them, keeping indices aligned
  /// with an uninterrupted run).
  size_t start_index = 0;
  /// Exclusive upper bound of the shard's work unit in absolute enumeration
  /// indices: dispatch stops before this index. When the enumerator still
  /// has databases at the bound, the sweep stops with kRangeEnd (the shard
  /// covered exactly [start_index, end_index)); when it is exhausted first,
  /// the stop is kComplete — the attestation a merge needs to know the
  /// whole space ends inside some shard's range.
  size_t end_index = static_cast<size_t>(-1);
  /// Deadline/cancellation token, polled at dispatch and inside checks (via
  /// SearchBudget::control). Not owned; may be null.
  RunControl* control = nullptr;
  /// Fault isolation: a hard-failing database is retried once; then true
  /// skips it (recording its index) and false aborts the sweep.
  bool skip_failed_databases = false;
  /// Failed indices inherited from a resumed checkpoint (all <
  /// start_index); carried into the merged result and checkpoints.
  std::vector<size_t> resume_failed;
  /// Invoke checkpoint_fn every this many completed databases (0 = never).
  size_t checkpoint_every = 0;
  /// Periodic progress sink: called with the completed-prefix high-water
  /// mark, the sorted failed-index list, and the total databases completed
  /// so far. Called from worker threads, serialized by an internal lock.
  std::function<void(size_t completed_prefix,
                     const std::vector<size_t>& failed,
                     size_t databases_completed)>
      checkpoint_fn;
};

/// The fault-isolation boundary of a database check, shared by sweep lanes
/// and pinned runs: a throw (std::bad_alloc from a huge product search,
/// most importantly) becomes a status instead of escaping the thread. A
/// fault::MemoryBudgetError is the memory-budget stop (a wind-down like a
/// deadline); any other exception is a hard error.
Result<bool> GuardedCheck(const std::function<Result<bool>()>& check);

/// Multi-threaded database sweep with deterministic first-violation
/// semantics: `jobs` worker loops, the chunks of one
/// ThreadPool::ParallelChunks call, pull databases from the enumerator
/// under a producer lock (enumeration is cheap; checking is expensive) and
/// run the check callback on worker-local VerificationResult records,
/// merged when all loops have drained.
///
/// Determinism guarantee (uninterrupted runs): the reported witness is
/// always the one with the LOWEST database index in enumeration order,
/// bit-for-bit identical to the serial sweep's. Dispatch is monotone in the
/// index and stops below the current best witness index, so every database
/// preceding the winner is fully checked before the sweep concludes;
/// databases beyond the winner that were already in flight only contribute
/// to the aggregate statistics (databases_checked and friends may exceed
/// their serial values — verdict, witness index, witness label and lasso
/// never differ).
///
/// Robustness: exceptions and hard error statuses from a database's check
/// are caught at the worker boundary (GuardedCheck), retried once, and —
/// under skip_failed_databases — recorded as per-database failures while
/// the sweep continues. A throw from the loop around the check (enumerator,
/// progress bookkeeping, checkpoint_fn) is classified the same way and ends
/// the sweep. A deadline or cancellation stop (RunControl) winds the
/// sweep down cooperatively; the merged result then covers the completed
/// prefix (stop_reason kDeadline / kCanceled) and a witness found before
/// the stop is still a sound violation (its index may exceed the
/// uninterrupted run's, since earlier databases may not have finished).
class ParallelSweep {
 public:
  /// Per-database check: `db_index` is the database's position in
  /// enumeration order, `dbs` the materialized instances (worker-owned),
  /// `out` the calling worker's private record: the check adds its tallies
  /// to `out.stats`, a budget cut to `out.coverage.stop_status`, and
  /// returns true when it recorded a witness in `out.counterexample` (the
  /// sweep sets its database_index). Must be safe to call concurrently on
  /// distinct `out` records (shared inputs read-only).
  using CheckFn = std::function<Result<bool>(
      size_t db_index, const std::vector<data::Instance>& dbs,
      VerificationResult& out)>;

  /// `enumerator` must outlive the sweep and be freshly positioned; it is
  /// only advanced under the internal producer lock.
  ParallelSweep(DatabaseEnumerator* enumerator, SweepOptions options);

  /// Runs the sweep to completion (or until a stop/abort) and merges the
  /// worker records: summed statistics, the lowest-index witness (if any),
  /// serial-equivalent stop status, the completed-prefix high-water mark
  /// and the sorted failed-index list. Coverage intervals, range and jobs
  /// are left to the caller. Hard (non-budget, non-stop) errors
  /// abort the sweep and are returned when skip_failed_databases is off,
  /// unless a witness with a lower database index makes them unreachable in
  /// the serial order.
  Result<VerificationResult> Run(const CheckFn& check);

 private:
  DatabaseEnumerator* enumerator_;
  SweepOptions options_;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_PARALLEL_SWEEP_H_
