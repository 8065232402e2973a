#include "verifier/first_witness.h"

#include <mutex>

namespace wsv::verifier {

void FirstWitness::Witness(size_t index) {
  // CAS-min: another lane may have found an earlier witness concurrently.
  size_t cur = fence_.load(std::memory_order_acquire);
  while (index < cur && !fence_.compare_exchange_weak(
                            cur, index, std::memory_order_acq_rel)) {
  }
}

void FirstWitness::Error(size_t index, Status status) {
  std::lock_guard<obs::TimedMutex> lock(mu_);
  if (!error_.has_value() || index < error_->first) {
    error_ = {index, std::move(status)};
  }
  halted_.store(true, std::memory_order_release);
}

void FirstWitness::Stop(Status status) {
  std::lock_guard<obs::TimedMutex> lock(mu_);
  if (!stop_.has_value()) stop_ = std::move(status);
  halted_.store(true, std::memory_order_release);
}

void FirstWitness::BudgetCut(size_t index, Status status) {
  std::lock_guard<obs::TimedMutex> lock(mu_);
  budget_cuts_.emplace_back(index, std::move(status));
}

std::optional<Status> FirstWitness::error() const {
  if (error_.has_value() && error_->first < witness()) return error_->second;
  return std::nullopt;
}

std::optional<Status> FirstWitness::budget_cut() const {
  const size_t cutoff = witness();
  const std::pair<size_t, Status>* last = nullptr;
  for (const auto& cut : budget_cuts_) {
    if (cut.first > cutoff) continue;
    if (last == nullptr || cut.first > last->first) last = &cut;
  }
  if (last == nullptr) return std::nullopt;
  return last->second;
}

}  // namespace wsv::verifier
