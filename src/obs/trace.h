#ifndef WSVERIFY_OBS_TRACE_H_
#define WSVERIFY_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/lock_profile.h"

namespace wsv::obs {

/// Records phase spans in the Chrome trace-event JSON format (the "Trace
/// Event Format" consumed by chrome://tracing and Perfetto). Disabled by
/// default; when disabled every record call is a single branch.
///
/// Events are buffered in memory and serialized on demand. The buffer is
/// capped (SetMaxEvents) so a pathological run cannot exhaust memory; on
/// overflow further events are dropped and counted, and the serialized
/// trace ends with an instant event reporting the number dropped.
///
/// Record calls are safe from multiple threads (the buffer is mutex-guarded
/// — events are rare relative to the work they span, so contention is
/// negligible); the disabled path stays one relaxed atomic load.
class TraceRecorder {
 public:
  /// Starts recording; timestamps are reported relative to this call.
  void Enable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Caps the buffer (default 1M events).
  void SetMaxEvents(size_t max_events) { max_events_ = max_events; }

  /// A completed span ("ph":"X"): [start_nanos, start_nanos + dur_nanos).
  /// `args_json` is either empty or a pre-rendered JSON object.
  void Complete(std::string name, const char* category, int64_t start_nanos,
                int64_t dur_nanos, std::string args_json = {});

  size_t size() const;
  uint64_t dropped() const;

  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

  /// The process-wide recorder used by PhaseTimer and the pipeline.
  static TraceRecorder& Global();

 private:
  struct Event {
    std::string name;
    const char* category;
    char phase;          // 'X' span; 'i' only for the trace_truncated note
    int64_t ts_nanos;    // relative to Enable()
    int64_t dur_nanos;   // 'X' only
    uint32_t tid;        // recording thread's stable lane id
    std::string args_json;
  };

  /// Requires mu_ held.
  bool Admit();

  std::atomic<bool> enabled_{false};
  /// The buffer mutex doubles as a profiled contention site: every
  /// recording thread funnels through it, so its wait share bounds the
  /// tracing overhead itself.
  mutable TimedMutex mu_{"trace"};
  size_t max_events_ = 1u << 20;
  int64_t origin_nanos_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Event> events_;
};

}  // namespace wsv::obs

#endif  // WSVERIFY_OBS_TRACE_H_
