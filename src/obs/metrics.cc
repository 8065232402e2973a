#include "obs/metrics.h"

#include <bit>

namespace wsv::obs {

Histogram::Histogram(const Histogram& other) { *this = other; }

Histogram& Histogram::operator=(const Histogram& other) {
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  min_.store(other.min_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  max_.store(other.max_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  return *this;
}

void Histogram::Record(uint64_t value) {
  uint64_t prev = min_.load(std::memory_order_relaxed);
  while (value < prev &&
         !min_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Bucket 0: exact zero. Bucket i: [2^(i-1), 2^i), i.e. bit_width(value).
  buckets_[value == 0 ? 0 : std::bit_width(value)].fetch_add(
      1, std::memory_order_relaxed);
}

std::array<uint64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::array<uint64_t, kBuckets> out;
  for (size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~static_cast<uint64_t>(0), std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::vector<std::pair<std::string, uint64_t>> Registry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, Histogram>> Registry::HistogramValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, *h);
  return out;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // leaked: outlive all users
  return *registry;
}

}  // namespace wsv::obs
