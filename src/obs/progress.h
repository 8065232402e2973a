#ifndef WSVERIFY_OBS_PROGRESS_H_
#define WSVERIFY_OBS_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>

namespace wsv::obs {

/// Periodic stderr heartbeat for long verification runs: databases checked,
/// searches launched, snapshots and product states explored, and the
/// exploration rate since the previous beat. The pipeline calls MaybeBeat()
/// at coarse points (per database, every few thousand product states); the
/// meter rate-limits actual output to the configured period.
///
/// MaybeBeat() is safe from concurrent sweep workers: the period gate is a
/// compare-exchange on the last-beat timestamp, so exactly one thread wins
/// each period and prints (under a mutex protecting the rate window); losers
/// return after one relaxed load.
class ProgressMeter {
 public:
  /// What the run's goal total counts, for the ETA estimate.
  enum class GoalUnit { kNone = 0, kDatabases = 1, kValuations = 2 };

  void Enable(int64_t period_millis = 1000);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Declares the run's known work total (databases for a bounded sweep,
  /// valuations for a pinned database); beats then print an ETA from the
  /// overall completion rate. Unbounded runs never call this and get no
  /// ETA. Safe to call before or after Enable().
  void SetGoal(GoalUnit unit, uint64_t total) {
    goal_total_.store(total, std::memory_order_relaxed);
    goal_unit_.store(static_cast<int>(unit), std::memory_order_relaxed);
  }

  /// Prints a heartbeat line if at least one period elapsed since the last.
  void MaybeBeat();

  /// Unconditionally prints one final line (end-of-run summary).
  void FinalBeat();

  /// The process-wide meter the pipeline reports to.
  static ProgressMeter& Global();

 private:
  void Beat(int64_t now, int64_t window_start, const char* tag);

  std::atomic<bool> enabled_{false};
  int64_t period_nanos_ = 0;
  int64_t started_nanos_ = 0;
  std::atomic<int64_t> last_beat_nanos_{0};
  std::atomic<uint64_t> goal_total_{0};
  std::atomic<int> goal_unit_{0};
  std::mutex beat_mu_;  // guards the print and the rate windows below
  uint64_t last_states_ = 0;
  uint64_t last_dbs_ = 0;
  uint64_t last_valuations_ = 0;
};

}  // namespace wsv::obs

#endif  // WSVERIFY_OBS_PROGRESS_H_
