#ifndef WSVERIFY_COMMON_FAULT_H_
#define WSVERIFY_COMMON_FAULT_H_

#include <atomic>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace wsv::fault {

/// Deterministic fault injection for robustness tests. A fault SITE is a
/// stable dotted name compiled into the code ("checkpoint.write.io",
/// "arena.alloc", ...); the environment variable WSV_FAULT arms sites:
///
///   WSV_FAULT=checkpoint.write.io:3          fail the 3rd hit of the site
///   WSV_FAULT=checkpoint.write.io:3:crash    _Exit(137) at the 3rd hit
///   WSV_FAULT=a:1,b:2:crash                  comma-separated list
///
/// `:every` repeats: the site fails at hit N, 2N, 3N, ... instead of once.
/// Hit counting is per-process and thread-safe. Unarmed processes pay one
/// relaxed atomic load per fault point.
///
/// Sites wired into the pipeline:
///   checkpoint.write.io   checkpoint writer (fail -> write error status;
///                         crash -> _Exit with a torn temp file on disk)
///   checkpoint.read.io    checkpoint reader (fail -> parse error, which
///                         exercises the .bak recovery path)
///   merge.io              wsvc-merge input reads
///   arena.alloc           Arena chunk growth (fail -> MemoryBudgetError,
///                         surfacing as the `memory-budget` stop reason)
///   pool.task             ThreadPool task boundary (fail -> the task
///                         throws before it runs: the drainer is abandoned
///                         and the ParallelChunks caller drains its chunks)

/// How an armed site misbehaves when its hit count is reached.
enum class Mode {
  /// The fault point returns true; the caller simulates an IO/alloc error.
  kFail,
  /// The process dies on the spot (std::_Exit(137)), simulating SIGKILL /
  /// power loss with whatever half-written state is on disk.
  kCrash,
};

/// One armed site, as parsed from WSV_FAULT.
struct SiteSpec {
  std::string site;
  /// Trigger on the Nth hit (1-based).
  uint64_t nth = 1;
  Mode mode = Mode::kFail;
  /// Re-trigger every `nth` hits instead of once.
  bool every = false;
};

/// Cheap global gate: true when any site is armed. Fault points check this
/// before taking the slow path, so disabled runs cost one relaxed load.
bool Enabled();

/// Counts a hit of `site`; true exactly when an armed spec for it fires in
/// kFail mode. In kCrash mode this call never returns (the process exits).
bool ShouldTrigger(const char* site);

/// Parses a WSV_FAULT-style spec and arms it, replacing the current set.
/// Returns false (leaving nothing armed) on a malformed spec. Tests use
/// this directly; production arming happens lazily from the environment on
/// the first Enabled() call.
bool ArmFromSpec(const std::string& spec);

/// Disarms everything and zeroes hit/injected counts (tests).
void Reset();

/// Snapshot of injected-fault counts per site (sites that actually fired,
/// crash-mode sites excluded for the obvious reason). Rendered into the
/// stats-JSON counters section as "fault.injected.<site>".
std::vector<std::pair<std::string, uint64_t>> InjectedCounts();

/// Total faults injected (sum of InjectedCounts()).
uint64_t InjectedTotal();

/// Thrown by Arena when the "arena.alloc" site fires (or a real bad_alloc
/// surfaces during chunk growth): a simulated out-of-memory condition the
/// sweep winds down from gracefully with the `memory-budget` stop reason
/// instead of crashing.
class MemoryBudgetError : public std::bad_alloc {
 public:
  explicit MemoryBudgetError(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

}  // namespace wsv::fault

/// True exactly when the named fault site fires this hit. Usable in any
/// expression: `if (WSV_FAULT_POINT("checkpoint.write.io")) ...`.
#define WSV_FAULT_POINT(site) \
  (::wsv::fault::Enabled() && ::wsv::fault::ShouldTrigger(site))

#endif  // WSVERIFY_COMMON_FAULT_H_
