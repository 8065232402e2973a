#ifndef WSVERIFY_COMMON_THREAD_POOL_H_
#define WSVERIFY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsv {

/// A fixed set of helper threads for ThreadPool::ParallelChunks, the one
/// fan-out primitive: the database sweep, graph exploration, leaf sealing
/// and the valuation fan-out all run their lanes through it. The pool's
/// own queue is private; ParallelChunks submits its drainer tasks there.
///
/// Failures have one channel: an exception from a chunk is rethrown on the
/// ParallelChunks caller. The worker loop still catches everything at the
/// task boundary (a throw escaping a thread would std::terminate the
/// process) and drops it: a drainer that throws before it claims its lane
/// is simply abandoned, and the caller drains its chunks instead.
///
/// The destructor runs every queued task (abandoned drainers no-op) and
/// joins the threads.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolves a user-facing jobs value: 0 selects the hardware concurrency
  /// (at least 1); anything else passes through.
  static size_t ResolveJobs(size_t jobs);

  /// Cooperative fan-out of `count` chunk indices over the calling thread
  /// plus idle pool workers. `fn(lane, chunk)` runs exactly once per chunk
  /// in [0, count); chunks are claimed in increasing order from a shared
  /// cursor, and `lane` (0 = caller, 1..helpers = pool drainers) lets
  /// callers keep per-lane accumulators without locks.
  ///
  /// The caller always participates, so the call completes even when every
  /// pool worker is pinned by long-running tasks (no deadlock on a shared
  /// pool, and calls nest: a chunk may fan out on the same pool); idle
  /// workers pick up drainer tasks and join in. At most `helpers` drainer
  /// tasks are submitted to `pool`. Drainers still queued when the caller
  /// exhausts the cursor are abandoned (they no-op when the pool eventually
  /// runs them), so a saturated pool costs nothing beyond the caller's own
  /// serial pass.
  ///
  /// If `fn` throws, the first exception (lowest chunk index) is rethrown
  /// on the calling thread after all started lanes finish; remaining chunks
  /// are skipped. Pass pool == nullptr or helpers == 0 for a plain serial
  /// loop on the caller (lane 0).
  static void ParallelChunks(
      ThreadPool* pool, size_t helpers, size_t count,
      const std::function<void(size_t lane, size_t chunk)>& fn);

 private:
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stopping
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wsv

#endif  // WSVERIFY_COMMON_THREAD_POOL_H_
