#include "obs/trace.h"

#include <fstream>

#include "obs/json_util.h"
#include "obs/timer.h"

namespace wsv::obs {

namespace {

/// Stable small lane id per recording thread, so Perfetto renders one span
/// track per worker instead of collapsing every phase onto tid 0.
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

void TraceRecorder::Enable() {
  std::lock_guard<TimedMutex> lock(mu_);
  origin_nanos_ = NowNanos();
  enabled_.store(true, std::memory_order_relaxed);
}

size_t TraceRecorder::size() const {
  std::lock_guard<TimedMutex> lock(mu_);
  return events_.size();
}

uint64_t TraceRecorder::dropped() const {
  std::lock_guard<TimedMutex> lock(mu_);
  return dropped_;
}

bool TraceRecorder::Admit() {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  return true;
}

void TraceRecorder::Complete(std::string name, const char* category,
                             int64_t start_nanos, int64_t dur_nanos,
                             std::string args_json) {
  if (!enabled()) return;
  std::lock_guard<TimedMutex> lock(mu_);
  if (!Admit()) return;
  events_.push_back(Event{std::move(name), category, 'X',
                          start_nanos - origin_nanos_, dur_nanos, CurrentTid(),
                          std::move(args_json)});
}

std::string TraceRecorder::ToJson() const {
  std::lock_guard<TimedMutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  auto emit = [&w](const Event& e) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("cat").String(e.category);
    w.Key("ph").String(std::string(1, e.phase));
    // Trace-event timestamps are microseconds; fractional micros keep
    // nanosecond resolution.
    w.Key("ts").Double(static_cast<double>(e.ts_nanos) / 1000.0);
    if (e.phase == 'X') {
      w.Key("dur").Double(static_cast<double>(e.dur_nanos) / 1000.0);
    }
    w.Key("pid").Uint(0);
    w.Key("tid").Uint(e.tid);
    if (e.phase == 'i') w.Key("s").String("g");  // global-scope instant
    if (!e.args_json.empty()) w.Key("args").Raw(e.args_json);
    w.EndObject();
  };
  for (const Event& e : events_) emit(e);
  if (dropped_ > 0) {
    Event note{"trace_truncated", "obs", 'i', NowNanos() - origin_nanos_, 0,
               CurrentTid(), "{\"dropped\":" + std::to_string(dropped_) + "}"};
    emit(note);
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.EndObject();
  return w.Take();
}

Status TraceRecorder::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open trace file: " + path);
  out << ToJson() << "\n";
  // Flush explicitly so the interrupted-run path (SIGINT partial verdict)
  // leaves a complete document on disk before this returns.
  out.flush();
  if (!out.good()) return Status::Internal("failed writing trace: " + path);
  return Status::Ok();
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

}  // namespace wsv::obs
