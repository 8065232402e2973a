#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/fault.h"
#include "common/ledger.h"

namespace wsv {

namespace {

/// Shared state of one ParallelChunks call. Held by shared_ptr from every
/// drainer closure so an abandoned drainer that the pool runs after the
/// call returned still finds valid memory (it only reads its state slot).
struct ChunkRun {
  enum LaneState : uint8_t { kPending = 0, kRunning = 1, kAbandoned = 2 };

  explicit ChunkRun(size_t helpers) : lane_state(helpers) {
    for (auto& s : lane_state) s.store(kPending, std::memory_order_relaxed);
  }

  std::atomic<size_t> cursor{0};
  size_t count = 0;
  /// Only lanes that won the kPending -> kRunning race may touch `fn`; the
  /// caller waits for exactly those, so `fn` (and whatever caller-local
  /// state it captures) is alive for them.
  const std::function<void(size_t, size_t)>* fn = nullptr;
  std::vector<std::atomic<uint8_t>> lane_state;

  std::mutex mu;
  std::condition_variable exit_cv;
  size_t exited_running = 0;
  std::exception_ptr first_error;
  size_t first_error_chunk = 0;

  void DrainFrom(size_t lane) {
    WorkerLedger* ledger = LedgerRegistry::Current();
    // Only the outermost drain on a thread books time: a chunk that fans
    // out again (a sweep lane checking one database) runs its inner drains
    // inside the outer interval, which already covers them.
    if (ledger == nullptr || ledger->in_drain) {
      DrainLoop(lane);
      return;
    }
    ledger->in_drain = true;
    int64_t start = LedgerRegistry::WallNanos();
    DrainLoop(lane);
    ledger->in_drain = false;
    uint64_t dur = static_cast<uint64_t>(LedgerRegistry::WallNanos() - start);
    ledger->drain_ns.fetch_add(dur, std::memory_order_relaxed);
    // A pool worker's drain runs inside a drainer task whose exec bucket
    // already covers it; the caller thread (lane 0, outside any task)
    // books its drain as exec so utilization sees caller participation.
    if (!ledger->in_task) {
      ledger->exec_ns.fetch_add(dur, std::memory_order_relaxed);
    }
  }

  void DrainLoop(size_t lane) {
    size_t chunk;
    while ((chunk = cursor.fetch_add(1, std::memory_order_relaxed)) < count) {
      try {
        (*fn)(lane, chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error || chunk < first_error_chunk) {
          first_error = std::current_exception();
          first_error_chunk = chunk;
        }
        // Stop claiming new work; lanes already in fn finish their chunk.
        cursor.store(count, std::memory_order_relaxed);
        return;
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  // Ledger registration is decided at thread birth: pools created while
  // profiling collection is off (unit tests, disabled runs) never touch
  // the clock in this loop.
  LedgerRegistry& ledgers = LedgerRegistry::Global();
  WorkerLedger* ledger =
      ledgers.enabled()
          ? ledgers.RegisterCurrentThread(ledgers.NextWorkerName())
          : nullptr;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (ledger != nullptr) {
      int64_t idle_start = LedgerRegistry::WallNanos();
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      ledger->idle_ns.fetch_add(
          static_cast<uint64_t>(LedgerRegistry::WallNanos() - idle_start),
          std::memory_order_relaxed);
    } else {
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    }
    // Queued tasks run even after stop_: the destructor drains the queue.
    if (queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    int64_t exec_start = ledger != nullptr ? LedgerRegistry::WallNanos() : 0;
    if (ledger != nullptr) ledger->in_task = true;
    // The safety net: a throw here would otherwise escape the thread and
    // std::terminate the whole process. Drainers catch their chunks'
    // exceptions themselves, so only a throw before a drainer claims its
    // lane lands here; that drainer is abandoned and the caller drains its
    // chunks.
    try {
      // The task boundary doubles as a fault site: an injected throw here
      // exercises exactly the isolation a misbehaving task would.
      if (WSV_FAULT_POINT("pool.task")) {
        throw std::runtime_error(
            "pool task failed (injected fault 'pool.task')");
      }
      task();
    } catch (...) {
    }
    if (ledger != nullptr) {
      ledger->in_task = false;
      ledger->exec_ns.fetch_add(
          static_cast<uint64_t>(LedgerRegistry::WallNanos() - exec_start),
          std::memory_order_relaxed);
      ledger->tasks.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
  }
}

size_t ThreadPool::ResolveJobs(size_t jobs) {
  if (jobs != 0) return jobs;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ThreadPool::ParallelChunks(
    ThreadPool* pool, size_t helpers, size_t count,
    const std::function<void(size_t lane, size_t chunk)>& fn) {
  if (count == 0) return;
  size_t drainers = std::min(helpers, count - 1);
  if (pool == nullptr || drainers == 0) {
    for (size_t chunk = 0; chunk < count; ++chunk) fn(0, chunk);
    return;
  }

  auto run = std::make_shared<ChunkRun>(drainers);
  run->count = count;
  run->fn = &fn;
  for (size_t i = 0; i < drainers; ++i) {
    pool->Submit([run, i] {
      uint8_t expected = ChunkRun::kPending;
      if (!run->lane_state[i].compare_exchange_strong(
              expected, ChunkRun::kRunning, std::memory_order_acq_rel)) {
        return;  // Abandoned: the caller already finished this run.
      }
      run->DrainFrom(/*lane=*/i + 1);
      {
        std::lock_guard<std::mutex> lock(run->mu);
        ++run->exited_running;
      }
      run->exit_cv.notify_all();
    });
  }

  run->DrainFrom(/*lane=*/0);

  // Abandon drainers that never started; wait out the ones that did (they
  // are on their last claimed chunk at most, since the cursor is spent).
  size_t running = 0;
  for (size_t i = 0; i < drainers; ++i) {
    uint8_t expected = ChunkRun::kPending;
    if (!run->lane_state[i].compare_exchange_strong(
            expected, ChunkRun::kAbandoned, std::memory_order_acq_rel)) {
      ++running;
    }
  }
  std::unique_lock<std::mutex> lock(run->mu);
  run->exit_cv.wait(lock, [&] { return run->exited_running == running; });
  if (run->first_error) std::rethrow_exception(run->first_error);
}

}  // namespace wsv
