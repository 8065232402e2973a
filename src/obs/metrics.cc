#include "obs/metrics.h"

#include <algorithm>
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

namespace {

/// Bucket 0: exact zero. Bucket i: [2^(i-1), 2^i), i.e. bit_width(value).
size_t Bucket(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

void StoreMin(std::atomic<uint64_t>& min, uint64_t value) {
  uint64_t prev = min.load(std::memory_order_relaxed);
  while (value < prev &&
         !min.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

void StoreMax(std::atomic<uint64_t>& max, uint64_t value) {
  uint64_t prev = max.load(std::memory_order_relaxed);
  while (value > prev &&
         !max.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Batch::Record(uint64_t value) {
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
  ++buckets[Bucket(value)];
}

void Histogram::Record(uint64_t value) {
  StoreMin(min_, value);
  StoreMax(max_, value);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[Bucket(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Add(const Batch& batch) {
  if (batch.count == 0) return;
  StoreMin(min_, batch.min);
  StoreMax(max_, batch.max);
  count_.fetch_add(batch.count, std::memory_order_relaxed);
  sum_.fetch_add(batch.sum, std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    if (batch.buckets[i] != 0) {
      buckets_[i].fetch_add(batch.buckets[i], std::memory_order_relaxed);
    }
  }
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
