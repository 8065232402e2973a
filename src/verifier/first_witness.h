#ifndef WSVERIFY_VERIFIER_FIRST_WITNESS_H_
#define WSVERIFY_VERIFIER_FIRST_WITNESS_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/lock_profile.h"

namespace wsv::verifier {

/// The serial-equivalent ending of a search over indexed items that stops
/// at the first item with a witness: the database sweep (one item per
/// database) and the valuation fan-out within a database (one item per
/// valuation). Lanes take items in increasing index order and report how
/// each one ended; FirstWitness turns the reports into what a serial loop
/// over the same items would have ended with, at any lane count:
///
/// - A witness lowers the dispatch fence to its index (CAS-min), and no
///   item at or above the fence is started, so every item below the final
///   fence was checked and the reported witness is the lowest-index one.
/// - A hard error halts dispatch; it is the loop's result only when its
///   index is below the witness (the serial loop reaches it first).
/// - A deadline/cancel stop halts dispatch; the first one is kept, and a
///   witness found before it is still a sound one.
/// - Budget cuts are replayed in index order: the serial loop overwrites
///   its status per item and ends at the witness, so the survivor is the
///   cut with the highest index at or below it.
class FirstWitness {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// `lock_site` names the lock that guards the error, stop and budget
  /// reports (see obs::TimedMutex).
  explicit FirstWitness(const char* lock_site) : mu_(lock_site) {}

  FirstWitness(const FirstWitness&) = delete;
  FirstWitness& operator=(const FirstWitness&) = delete;

  // Reports from the lanes; thread-safe.

  /// Whether item `index` still needs checking: dispatch is not halted and
  /// no witness was found at or below it.
  bool Open(size_t index) const {
    return !halted_.load(std::memory_order_acquire) &&
           index < fence_.load(std::memory_order_acquire);
  }
  void Witness(size_t index);
  void Error(size_t index, Status status);
  void Stop(Status status);
  void BudgetCut(size_t index, Status status);

  // The ending; call after every lane has finished.

  /// The lowest witness index, or kNone.
  size_t witness() const { return fence_.load(std::memory_order_acquire); }
  /// The hard error the serial loop ends with (one below the witness).
  std::optional<Status> error() const;
  /// The first deadline/cancel stop.
  const std::optional<Status>& stop() const { return stop_; }
  /// The budget cut the serial loop ends with.
  std::optional<Status> budget_cut() const;

 private:
  std::atomic<size_t> fence_{kNone};
  std::atomic<bool> halted_{false};
  obs::TimedMutex mu_;
  std::optional<std::pair<size_t, Status>> error_;
  std::optional<Status> stop_;
  std::vector<std::pair<size_t, Status>> budget_cuts_;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_FIRST_WITNESS_H_
