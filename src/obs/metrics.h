#ifndef WSVERIFY_OBS_METRICS_H_
#define WSVERIFY_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wsv::obs {

/// A monotonic counter. Increments are relaxed atomics: the parallel
/// database sweep records from every worker thread, and relaxed fetch_add
/// keeps the hot path to one uncontended RMW with no ordering fences.
/// Cross-counter consistency is not guaranteed (a concurrent reader may see
/// counter A ahead of counter B), which is fine for monitoring output.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Power-of-two bucketed histogram of non-negative samples. Bucket 0 holds
/// exact zeros; bucket i (i >= 1) holds values in [2^(i-1), 2^i).
/// Recording is lock-free (relaxed atomics; CAS loops for min/max); a
/// snapshot copy taken while writers are active is internally consistent
/// per field but fields may be mutually skewed by in-flight samples.
class Histogram {
 public:
  /// Zeros + one bucket per bit of a uint64_t.
  static constexpr size_t kBuckets = 65;

  /// Samples tallied by one thread with no atomics, for one Add(): a hot
  /// loop records into a Batch and books it once.
  struct Batch {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = ~static_cast<uint64_t>(0);
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};

    void Record(uint64_t value);
  };

  Histogram() = default;
  /// Snapshot copy (relaxed loads); safe concurrently with Record().
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Record(uint64_t value);
  /// Adds every sample of `batch`: the same values as Record() per sample.
  void Add(const Batch& batch);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Min/max of recorded samples; 0 when empty.
  uint64_t min() const {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::array<uint64_t, kBuckets> buckets() const;
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~static_cast<uint64_t>(0)};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Named registry of counters and histograms. Instruments are
/// created on first use and never destroyed, so call sites may cache the
/// returned references across Reset() (which zeroes values but keeps
/// identities) — the hot path then pays one pointer chase per event.
///
/// Registration is mutex-guarded; recording into an instrument is lock-free
/// (relaxed atomics — see Counter). Export snapshots are taken under the
/// registration mutex and are safe while worker threads keep recording.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every instrument, preserving identities (cached references in
  /// instrumented code stay valid).
  void Reset();

  /// Sorted-by-name value snapshots, for export.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, Histogram>> HistogramValues() const;

  /// The process-wide registry every instrumented pipeline stage reports to.
  static Registry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace wsv::obs

#endif  // WSVERIFY_OBS_METRICS_H_
