#include "verifier/parallel_sweep.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <utility>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "obs/lock_profile.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timer.h"
#include "verifier/first_witness.h"

namespace wsv::verifier {

namespace {

/// A violation found by one worker: everything needed to reconstruct the
/// serial sweep's witness once the lowest index is known.
struct Candidate {
  size_t index;
  size_t valuation_index;
  std::vector<data::Instance> databases;
  std::vector<std::string> label;
  LassoWitness lasso;
};

/// Worker-local sweep state; only touched by its own thread until the
/// barrier at the end of Run().
struct Worker {
  EngineOutcome outcome;
  std::optional<Candidate> candidate;
};

/// Shared completion bookkeeping: the contiguous completed prefix of the
/// enumeration order (the checkpointable high-water mark), out-of-order
/// completions ahead of it, and the failed-index list.
struct Progress {
  // Completion bookkeeping doubles as the checkpoint writer's lock: the
  // periodic checkpoint_fn runs under it, so its wait share shows how long
  // workers stall behind checkpoint I/O.
  obs::TimedMutex mu{"sweep.progress"};
  size_t next_expected = 0;
  std::set<size_t> done_ahead;
  std::vector<size_t> failed;
  size_t total_done = 0;
  size_t since_checkpoint = 0;
};

}  // namespace

Result<bool> GuardedCheck(const std::function<Result<bool>()>& check) {
  try {
    return check();
  } catch (const fault::MemoryBudgetError& e) {
    // A memory-budget hit is a wind-down stop like a deadline, not a hard
    // per-database failure: the run reports the covered prefix and the
    // `memory-budget` stop reason instead of retrying or crashing.
    return Status::MemoryBudget(e.what());
  } catch (const std::bad_alloc&) {
    return Status::Internal("database check ran out of memory (bad_alloc)");
  } catch (const std::exception& e) {
    return Status::Internal(std::string("database check threw: ") + e.what());
  } catch (...) {
    return Status::Internal("database check threw a non-standard exception");
  }
}

ParallelSweep::ParallelSweep(DatabaseEnumerator* enumerator,
                             SweepOptions options)
    : enumerator_(enumerator), options_(std::move(options)) {
  if (options_.jobs == 0) options_.jobs = 1;
}

Result<EngineOutcome> ParallelSweep::Run(const CheckFn& check) {
  // Resume fast-forward: walk the enumerator over the completed prefix so
  // dispatch indices stay aligned with an uninterrupted run's.
  if (options_.start_index > 0) {
    obs::PhaseTimer enum_phase("db_enum");
    std::vector<data::Instance> scratch;
    for (size_t i = 0; i < options_.start_index; ++i) {
      if (!enumerator_->Next(&scratch)) break;
    }
  }

  // Producer state: the enumerator and dispatch cursor, under one lock.
  obs::TimedMutex producer_mu{"sweep.producer"};
  size_t next_index = options_.start_index;
  bool max_databases_hit = false;
  bool range_end_hit = false;

  // Dispatch is monotone in the index and stops at the lowest witness so
  // far, at a hard error and at a deadline/cancel stop (checks already
  // running observe the same token and stop from within).
  FirstWitness race("sweep.stop");

  Progress progress;
  progress.next_expected = options_.start_index;
  progress.failed = options_.resume_failed;
  std::sort(progress.failed.begin(), progress.failed.end());

  std::vector<Worker> workers(options_.jobs);

  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& dbs_counter =
      registry.counter("engine.databases_checked");
  static obs::Counter& failures_counter =
      registry.counter("sweep.db_failures");
  static obs::Counter& retries_counter = registry.counter("sweep.retries");

  auto mark_done = [&](size_t index) {
    std::lock_guard<obs::TimedMutex> lock(progress.mu);
    ++progress.total_done;
    if (index == progress.next_expected) {
      ++progress.next_expected;
      while (!progress.done_ahead.empty() &&
             *progress.done_ahead.begin() == progress.next_expected) {
        progress.done_ahead.erase(progress.done_ahead.begin());
        ++progress.next_expected;
      }
    } else {
      progress.done_ahead.insert(index);
    }
    if (options_.checkpoint_fn && options_.checkpoint_every > 0 &&
        ++progress.since_checkpoint >= options_.checkpoint_every) {
      progress.since_checkpoint = 0;
      std::vector<size_t> failed = progress.failed;
      std::sort(failed.begin(), failed.end());
      options_.checkpoint_fn(progress.next_expected, failed,
                             progress.total_done);
    }
  };

  auto mark_failed = [&](size_t index) {
    {
      std::lock_guard<obs::TimedMutex> lock(progress.mu);
      progress.failed.push_back(index);
    }
    failures_counter.Add(1);
    mark_done(index);  // failed databases count toward the resumable prefix
  };

  // One worker loop; `at` tracks the database it is on, so a throw outside
  // the check itself is ordered like a failure of that database.
  auto worker_loop = [&](Worker& me, size_t& at) {
    std::vector<data::Instance> dbs;
    for (;;) {
      size_t index;
      {
        std::lock_guard<obs::TimedMutex> lock(producer_mu);
        at = next_index;
        if (!race.Open(next_index)) break;
        if (options_.control != nullptr) {
          Status token = options_.control->Check();
          if (!token.ok()) {
            race.Stop(std::move(token));
            break;
          }
        }
        bool more = [&] {
          obs::PhaseTimer enum_phase("db_enum");
          return enumerator_->Next(&dbs);
        }();
        if (!more) break;
        // Range end is checked before max_databases so a tie reports
        // range-end (the shard finished its work unit; the global budget is
        // the coordinator's concern). Next() succeeding first proves more
        // enumeration remains beyond the bound.
        if (next_index >= options_.end_index) {
          range_end_hit = true;
          break;
        }
        if (next_index >= options_.max_databases) {
          max_databases_hit = true;
          break;
        }
        index = next_index++;
      }
      ++me.outcome.databases_checked;
      dbs_counter.Add(1);
      obs::ProgressMeter::Global().MaybeBeat();

      auto check_one = [&] { return check(index, dbs, me.outcome); };
      Result<bool> found = GuardedCheck(check_one);
      if (!found.ok() && RunControl::IsStopStatus(found.status())) {
        race.Stop(found.status());
        break;
      }
      if (!found.ok()) {
        // Hard error: retry once on the same worker-local accumulators
        // (statistics may double-count the failed attempt; the verdict
        // machinery is unaffected). Clear any budget event the failed
        // attempt left behind so it is not replayed twice.
        me.outcome.stop_status = Status::Ok();
        ++me.outcome.db_retries;
        retries_counter.Add(1);
        found = GuardedCheck(check_one);
        if (!found.ok() && RunControl::IsStopStatus(found.status())) {
          race.Stop(found.status());
          break;
        }
        if (!found.ok()) {
          if (options_.skip_failed_databases) {
            me.outcome.stop_status = Status::Ok();
            mark_failed(index);
            continue;
          }
          race.Error(index, found.status());
          break;
        }
      }
      if (!me.outcome.stop_status.ok()) {
        race.BudgetCut(index, std::move(me.outcome.stop_status));
        me.outcome.stop_status = Status::Ok();
      }
      mark_done(index);
      if (*found) {
        me.candidate = Candidate{index,
                                 me.outcome.violation_valuation_index,
                                 std::move(me.outcome.databases),
                                 std::move(me.outcome.label),
                                 std::move(me.outcome.lasso)};
        me.outcome.violation_found = false;
        me.outcome.violation_valuation_index = static_cast<size_t>(-1);
        me.outcome.databases.clear();
        me.outcome.label.clear();
        me.outcome.lasso = LassoWitness{};
        race.Witness(index);
        // This worker's future pulls would all have higher indices than its
        // own witness — nothing left for it to decide.
        break;
      }
    }
  };

  // The worker loops are the chunks of one fan-out: the caller runs as
  // lane 0, the scheduler's threads as the other lanes, and a loop whose
  // lane never starts is run by a lane that finished its own. A throw that
  // escapes a loop (enumerator, progress bookkeeping, checkpoint_fn) gets
  // the check's exception boundary: it ends the sweep as a memory-budget
  // stop or a hard error at the database the loop was on.
  std::optional<ThreadPool> own_pool;
  ThreadPool* pool = options_.pool;
  if (pool == nullptr && options_.jobs > 1) {
    own_pool.emplace(options_.jobs - 1);
    pool = &*own_pool;
  }
  ThreadPool::ParallelChunks(
      pool, options_.jobs - 1, options_.jobs, [&](size_t, size_t w) {
        size_t at = options_.start_index;
        Result<bool> ended = GuardedCheck([&]() -> Result<bool> {
          worker_loop(workers[w], at);
          return false;
        });
        if (ended.ok()) return;
        if (RunControl::IsStopStatus(ended.status())) {
          race.Stop(ended.status());
        } else {
          race.Error(at, ended.status());
        }
      });

  // --- Merge: sums first, then the deterministic winner selection. ---
  obs::PhaseTimer merge_phase("merge");
  EngineOutcome merged;
  for (const Worker& w : workers) {
    merged.databases_checked += w.outcome.databases_checked;
    merged.searches += w.outcome.searches;
    merged.prefiltered += w.outcome.prefiltered;
    merged.prefilter_memo_misses += w.outcome.prefilter_memo_misses;
    merged.prefilter_memo_hits += w.outcome.prefilter_memo_hits;
    merged.db_retries += w.outcome.db_retries;
    merged.search_stats.Add(w.outcome.search_stats);
  }
  merged.completed_prefix = progress.next_expected;

  if (std::optional<Status> error = race.error()) return *error;
  Candidate* best = nullptr;
  for (Worker& w : workers) {
    if (w.candidate.has_value() && w.candidate->index == race.witness()) {
      best = &*w.candidate;
    }
  }

  if (best != nullptr) {
    merged.violation_found = true;
    merged.violation_db_index = best->index;
    merged.violation_valuation_index = best->valuation_index;
    merged.databases = std::move(best->databases);
    merged.label = std::move(best->label);
    merged.lasso = std::move(best->lasso);
  }

  // Failed indices: sorted, and — when a witness exists — restricted to
  // indices below it: a serial fault-isolated run stops at the witness, so
  // later failures are unreachable.
  std::sort(progress.failed.begin(), progress.failed.end());
  for (size_t index : progress.failed) {
    if (best != nullptr && index >= best->index) break;
    merged.failed_db_indices.push_back(index);
  }

  // Stop status, serial-equivalent. Precedence: a deadline/cancel stop is
  // the reason the sweep ended; otherwise skipped failures bound the
  // verdict; otherwise the replayed budget cut.
  if (race.stop().has_value()) {
    merged.stop_status = *race.stop();
  } else if (!merged.failed_db_indices.empty()) {
    merged.stop_status = Status::PartialFailure(
        std::to_string(merged.failed_db_indices.size()) +
        " database check(s) failed and were skipped; verdict is bounded to "
        "the databases that completed");
  } else {
    const std::optional<Status> budget_cut = race.budget_cut();
    if (budget_cut.has_value()) merged.stop_status = *budget_cut;
    if (best == nullptr && range_end_hit && !budget_cut.has_value()) {
      // A bounded per-database search keeps its budget status: reporting
      // range-end over it would let a merge attest full coverage of a range
      // whose databases were only partially searched.
      merged.stop_status = Status::RangeEnd(
          "database enumeration stopped at the end of the assigned range; "
          "the verdict covers exactly this shard's indices");
    } else if (best == nullptr && max_databases_hit) {
      merged.stop_status = Status::BudgetExceeded(
          "database enumeration stopped at max_databases; verdict is "
          "bounded");
    }
  }
  merged.stop_reason = StopReasonFromStatus(merged.stop_status);
  return merged;
}

}  // namespace wsv::verifier
