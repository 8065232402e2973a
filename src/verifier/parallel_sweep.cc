#include "verifier/parallel_sweep.h"

#include <algorithm>
#include <atomic>
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
  /// (database index, status) per database whose check ended with a
  /// non-OK budget status — replayed in serial order at merge time.
  std::vector<std::pair<size_t, Status>> budget_events;
  std::optional<std::pair<size_t, Status>> error;
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

/// The fault-isolation boundary: a check that throws (std::bad_alloc from a
/// huge product search, most importantly) is converted to a hard error
/// status instead of escaping the worker thread.
Result<bool> GuardedCheck(const ParallelSweep::CheckFn& check, size_t index,
                          const std::vector<data::Instance>& dbs,
                          EngineOutcome& outcome) {
  try {
    return check(index, dbs, outcome);
  } catch (const fault::MemoryBudgetError& e) {
    // A memory-budget hit is a wind-down stop like a deadline, not a hard
    // per-database failure: the sweep reports the covered prefix and the
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

}  // namespace

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

  // Lowest witness index found so far; dispatch stops at or above it. Only
  // ever lowered, so every index below the final value was dispatched (in
  // order) and fully checked — the basis of the determinism guarantee.
  std::atomic<size_t> stop_before{static_cast<size_t>(-1)};
  // A hard (non-budget) error anywhere aborts all dispatch.
  std::atomic<bool> abort{false};
  // A deadline/cancel stop winds dispatch down; checks already running
  // observe the same token and stop from within.
  std::atomic<bool> stopped{false};
  obs::TimedMutex stop_mu{"sweep.stop"};
  std::optional<Status> stop_event;

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

  auto record_stop = [&](const Status& status) {
    std::lock_guard<obs::TimedMutex> lock(stop_mu);
    if (!stop_event.has_value()) stop_event = status;
    stopped.store(true, std::memory_order_release);
  };

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

  auto worker_fn = [&](size_t w) {
    Worker& me = workers[w];
    std::vector<data::Instance> dbs;
    while (!abort.load(std::memory_order_acquire) &&
           !stopped.load(std::memory_order_acquire)) {
      size_t index;
      {
        std::lock_guard<obs::TimedMutex> lock(producer_mu);
        if (options_.control != nullptr) {
          Status token = options_.control->Check();
          if (!token.ok()) {
            record_stop(token);
            break;
          }
        }
        if (next_index >= stop_before.load(std::memory_order_acquire)) break;
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

      Result<bool> found = GuardedCheck(check, index, dbs, me.outcome);
      if (!found.ok() && RunControl::IsStopStatus(found.status())) {
        record_stop(found.status());
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
        found = GuardedCheck(check, index, dbs, me.outcome);
        if (!found.ok() && RunControl::IsStopStatus(found.status())) {
          record_stop(found.status());
          break;
        }
        if (!found.ok()) {
          if (options_.skip_failed_databases) {
            me.outcome.stop_status = Status::Ok();
            mark_failed(index);
            continue;
          }
          if (!me.error.has_value() || index < me.error->first) {
            me.error = {index, found.status()};
          }
          abort.store(true, std::memory_order_release);
          break;
        }
      }
      if (!me.outcome.stop_status.ok()) {
        me.budget_events.emplace_back(index, me.outcome.stop_status);
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
        // Lower the dispatch fence; CAS-min since another worker may have
        // found an earlier witness concurrently.
        size_t cur = stop_before.load(std::memory_order_acquire);
        while (index < cur &&
               !stop_before.compare_exchange_weak(
                   cur, index, std::memory_order_acq_rel)) {
        }
        // This worker's future pulls would all have higher indices than its
        // own witness — nothing left for it to decide.
        break;
      }
    }
  };

  {
    // Run on the borrowed scheduler when one is attached, else on a private
    // pool. Wait() returns once the workers AND any within-database helper
    // tasks they spawned onto the same pool have drained.
    std::optional<ThreadPool> own_pool;
    ThreadPool* pool = options_.pool;
    if (pool == nullptr) {
      own_pool.emplace(options_.jobs);
      pool = &*own_pool;
    }
    for (size_t w = 0; w < options_.jobs; ++w) {
      pool->Submit([&worker_fn, w] { worker_fn(w); });
    }
    pool->Wait();
  }

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

  // Lowest-index witness and lowest-index hard error across workers.
  Candidate* best = nullptr;
  for (Worker& w : workers) {
    if (w.candidate.has_value() &&
        (best == nullptr || w.candidate->index < best->index)) {
      best = &*w.candidate;
    }
  }
  std::optional<std::pair<size_t, Status>> first_error;
  for (const Worker& w : workers) {
    if (w.error.has_value() &&
        (!first_error.has_value() || w.error->first < first_error->first)) {
      first_error = w.error;
    }
  }

  // The serial sweep processes indices in order, so whichever of
  // {first witness, first hard error} has the lower index is what it would
  // have reported; the other is unreachable.
  if (first_error.has_value() &&
      (best == nullptr || first_error->first < best->index)) {
    return first_error->second;
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
  // verdict; otherwise replay budget events — the serial sweep overwrites
  // its budget status per database, so it ends with the event of the
  // highest index it processed, which is at most the witness index (it
  // stops there). Events beyond the witness come from in-flight databases
  // the serial sweep never reaches; drop them.
  if (stop_event.has_value()) {
    merged.stop_status = *stop_event;
  } else if (!merged.failed_db_indices.empty()) {
    merged.stop_status = Status::PartialFailure(
        std::to_string(merged.failed_db_indices.size()) +
        " database check(s) failed and were skipped; verdict is bounded to "
        "the databases that completed");
  } else {
    size_t cutoff = best != nullptr ? best->index : static_cast<size_t>(-1);
    std::optional<std::pair<size_t, Status>> last_budget;
    for (const Worker& w : workers) {
      for (const auto& event : w.budget_events) {
        if (event.first > cutoff) continue;
        if (!last_budget.has_value() || event.first > last_budget->first) {
          last_budget = event;
        }
      }
    }
    if (last_budget.has_value()) {
      merged.stop_status = last_budget->second;
    }
    if (best == nullptr && range_end_hit && !last_budget.has_value()) {
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
