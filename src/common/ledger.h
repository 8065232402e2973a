#ifndef WSVERIFY_COMMON_LEDGER_H_
#define WSVERIFY_COMMON_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wsv {

/// Per-thread time ledger: nanosecond buckets recording where a worker spent
/// its wall time. The buckets attribute time, they do not partition it:
/// `drain` time spent inside a pool task is also part of that task's `exec`
/// time, and `lock_wait` overlaps whichever bucket the waiting code ran
/// under. Utilization is exec / wall, where wall runs from registration to
/// the snapshot. Nested drains (a chunk that fans out again on the same
/// thread) are booked once, so drain and exec each stay within wall.
struct WorkerLedger {
  std::string name;
  int64_t registered_nanos = 0;
  std::atomic<uint64_t> exec_ns{0};       // running submitted tasks
  std::atomic<uint64_t> idle_ns{0};       // blocked on the work queue
  std::atomic<uint64_t> lock_wait_ns{0};  // contended TimedMutex waits
  std::atomic<uint64_t> drain_ns{0};      // inside ParallelChunks drains
  std::atomic<uint64_t> tasks{0};         // tasks executed

  /// True while the owning thread is inside a pool task (owner-thread
  /// only, never exported): lets nested drains know their time is already
  /// covered by the surrounding task's exec bucket.
  bool in_task = false;
  /// True while the owning thread is inside a ParallelChunks drain
  /// (owner-thread only): a drain nested in it books nothing, so only the
  /// outermost interval counts toward drain and exec.
  bool in_drain = false;
};

/// Value snapshot of one ledger, taken at export time.
struct WorkerLedgerSnapshot {
  std::string name;
  uint64_t wall_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t drain_ns = 0;
  uint64_t tasks = 0;
};

/// Process-wide ledger table. Ledgers are created when a thread registers
/// and never destroyed (same lifetime rule as obs counters), so recording is
/// lock-free after registration. Recording is gated on `enabled()`: the
/// pool registers worker ledgers only while the registry is enabled, which
/// `wsvc` turns on alongside stats collection.
class LedgerRegistry {
 public:
  static LedgerRegistry& Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Creates a ledger named `name` and installs it as the calling thread's
  /// current ledger (replacing any previous one). The pointer stays valid
  /// for the process lifetime.
  WorkerLedger* RegisterCurrentThread(std::string name);

  /// Returns a process-unique worker name ("worker.0", "worker.1", ...).
  std::string NextWorkerName();

  /// The calling thread's ledger, or nullptr when it never registered.
  static WorkerLedger* Current();

  /// Adds contended-lock wait time to the calling thread's ledger, if any.
  static void AddLockWait(uint64_t nanos);

  /// Wall time source for ledgers (steady clock, ns since arbitrary epoch).
  static int64_t WallNanos();

  std::vector<WorkerLedgerSnapshot> Snapshot() const;

  /// Zeroes every bucket and restarts every wall clock (bench reruns).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<WorkerLedger>> ledgers_;
  std::atomic<bool> enabled_{false};
  uint64_t next_worker_ = 0;
};

}  // namespace wsv

#endif  // WSVERIFY_COMMON_LEDGER_H_
