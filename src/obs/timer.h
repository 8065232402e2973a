#ifndef WSVERIFY_OBS_TIMER_H_
#define WSVERIFY_OBS_TIMER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wsv::obs {

struct PhaseNode;

/// Monotonic wall clock, nanoseconds since an arbitrary epoch.
int64_t NowNanos();

/// RAII phase timer: while timing is enabled, accumulates the enclosed
/// scope's wall time into the process-wide phase tree (the stats-JSON
/// "phases" section), and while tracing is enabled, emits a matching trace
/// span. When both are disabled the constructor is one branch and no clock
/// is read.
///
///   { obs::PhaseTimer timer("ndfs"); ... }   // -> e.g. "total/.../ndfs"
///
/// Phases measure code regions, not a partition of the run: lazily-computed
/// work (leaf evaluation under NDFS, graph expansion under a successor
/// call) accumulates into its own phase while nested inside another.
///
/// Each thread keeps its own phase stack, so a phase started on a worker
/// thread roots at that thread's top level (e.g. "check_db/ndfs" for a
/// sweep worker) while the calling thread's phases nest under "total". Tree
/// accounting costs one cached node lookup per timer and is contention-free
/// after warm-up.
class PhaseTimer {
 public:
  /// `name` must outlive the timer (string literals in practice).
  /// `trace_args_json` is attached to the trace span only; pass {} (and
  /// build args under obs::TracingEnabled()) to keep the disabled path
  /// allocation-free.
  explicit PhaseTimer(const char* name, std::string trace_args_json = {});
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  const char* name_;
  int64_t start_;  // -1 when observability is off
  PhaseNode* node_ = nullptr;  // phase-tree node, null when timing is off
  std::string trace_args_json_;
};

/// One row of the flattened phase tree: `path` joins nested phase names
/// with '/' ("total/check_db/ndfs"); `self_ns` is total minus the time
/// spent in child phases (clamped at zero against clock skew).
struct PhaseTreeEntry {
  std::string path;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t count = 0;
};

/// Snapshot of the process-wide phase tree, sorted by path.
std::vector<PhaseTreeEntry> PhaseTreeSnapshot();

/// Zeroes the tree's accumulators, preserving node identities (bench and
/// test reruns; per-thread node caches stay valid).
void PhaseTreeReset();

/// Phase timing is opt-in: PhaseTimer reads this process-wide flag and
/// skips its clock calls entirely when it is off (and tracing is too).
void SetTimingEnabled(bool enabled);
/// True when phase timing is collecting into the phase tree.
bool TimingEnabled();
/// True when the global trace recorder is collecting.
bool TracingEnabled();

}  // namespace wsv::obs

#endif  // WSVERIFY_OBS_TIMER_H_
