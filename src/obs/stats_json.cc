#include "obs/stats_json.h"

#include <cstdio>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/fault.h"
#include "common/ledger.h"
#include "obs/json_util.h"
#include "obs/timer.h"

namespace wsv::obs {

namespace {

/// Splits a "lock.<site>.<field>" counter name into site and field; the
/// site itself may contain dots ("sweep.producer"), the field never does.
bool SplitLockCounter(const std::string& name, std::string* site,
                      std::string* field) {
  constexpr char kPrefix[] = "lock.";
  if (name.rfind(kPrefix, 0) != 0) return false;
  size_t last_dot = name.rfind('.');
  if (last_dot <= sizeof(kPrefix) - 1) return false;
  *site = name.substr(sizeof(kPrefix) - 1, last_dot - (sizeof(kPrefix) - 1));
  *field = name.substr(last_dot + 1);
  return *field == "acquisitions" || *field == "contended" ||
         *field == "wait_ns";
}

void RenderWorkers(JsonWriter& w) {
  w.Key("workers").BeginObject();
  for (const WorkerLedgerSnapshot& ledger :
       LedgerRegistry::Global().Snapshot()) {
    w.Key(ledger.name).BeginObject();
    w.Key("wall_ns").Uint(ledger.wall_ns);
    w.Key("exec_ns").Uint(ledger.exec_ns);
    w.Key("idle_ns").Uint(ledger.idle_ns);
    w.Key("lock_wait_ns").Uint(ledger.lock_wait_ns);
    w.Key("drain_ns").Uint(ledger.drain_ns);
    w.Key("tasks").Uint(ledger.tasks);
    w.Key("utilization")
        .Double(ledger.wall_ns == 0
                    ? 0.0
                    : static_cast<double>(ledger.exec_ns) /
                          static_cast<double>(ledger.wall_ns));
    w.EndObject();
  }
  w.EndObject();
}

void RenderLocks(JsonWriter& w, const Registry& registry) {
  // Regroup lock.<site>.<field> counters per site. CounterValues() is
  // sorted by name, so a site's three counters are adjacent.
  w.Key("locks").BeginObject();
  std::string open_site;
  bool site_open = false;
  for (const auto& [name, value] : registry.CounterValues()) {
    std::string site, field;
    if (!SplitLockCounter(name, &site, &field)) continue;
    if (!site_open || site != open_site) {
      if (site_open) w.EndObject();
      w.Key(site).BeginObject();
      open_site = site;
      site_open = true;
    }
    w.Key(field).Uint(value);
  }
  if (site_open) w.EndObject();
  w.EndObject();
}

void RenderProcess(JsonWriter& w) {
  w.Key("process").BeginObject();
  w.Key("max_rss_kb").Uint(ProcessMaxRssKb());
  w.EndObject();
}

}  // namespace

void WritePhaseEntries(JsonWriter& w,
                       const std::vector<PhaseTreeEntry>& entries) {
  w.BeginArray();
  for (const PhaseTreeEntry& entry : entries) {
    w.BeginObject();
    w.Key("path").String(entry.path);
    w.Key("total_ns").Uint(entry.total_ns);
    w.Key("self_ns").Uint(entry.self_ns);
    w.Key("count").Uint(entry.count);
    w.EndObject();
  }
  w.EndArray();
}

size_t ProcessMaxRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<size_t>(usage.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<size_t>(usage.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::string RenderStatsJson(
    const Registry& registry, const std::string& generator,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(kStatsSchemaVersion);
  w.Key("generator").String(generator);

  w.Key("counters").BeginObject();
  for (const auto& [name, value] : registry.CounterValues()) {
    w.Key(name).Uint(value);
  }
  // Injected-fault counts live in the fault registry (common has no obs
  // dependency) and are folded into the counters section at render time,
  // so chaos runs are auditable from their stats documents alone.
  if (fault::Enabled()) {
    uint64_t injected_total = 0;
    for (const auto& [site, count] : fault::InjectedCounts()) {
      w.Key("fault.injected." + site).Uint(count);
      injected_total += count;
    }
    w.Key("fault.injected").Uint(injected_total);
  }
  w.EndObject();

  w.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : registry.HistogramValues()) {
    w.Key(name).BeginObject();
    w.Key("count").Uint(histogram.count());
    w.Key("sum").Uint(histogram.sum());
    w.Key("min").Uint(histogram.min());
    w.Key("max").Uint(histogram.max());
    // Buckets trimmed to the highest non-empty one; bucket i >= 1 counts
    // samples in [2^(i-1), 2^i), bucket 0 counts exact zeros.
    const std::array<uint64_t, Histogram::kBuckets> buckets =
        histogram.buckets();
    size_t last = Histogram::kBuckets;
    while (last > 0 && buckets[last - 1] == 0) --last;
    w.Key("buckets").BeginArray();
    for (size_t i = 0; i < last; ++i) w.Uint(buckets[i]);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  RenderWorkers(w);
  RenderLocks(w, registry);
  w.Key("phases");
  WritePhaseEntries(w, PhaseTreeSnapshot());
  RenderProcess(w);

  for (const auto& [key, json] : extra) {
    w.Key(key).Raw(json);
  }
  w.EndObject();
  return w.Take();
}

Status WriteStatsJson(
    const Registry& registry, const std::string& generator,
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open stats file: " + path);
  out << RenderStatsJson(registry, generator, extra) << "\n";
  // Flush explicitly so a short write surfaces here rather than in the
  // destructor — the SIGINT partial-verdict path depends on the document
  // being complete on disk the moment this returns.
  out.flush();
  if (!out.good()) return Status::Internal("failed writing stats: " + path);
  return Status::Ok();
}

std::string RenderTextSummary(const Registry& registry) {
  std::string out;
  char line[160];
  for (const PhaseTreeEntry& entry : PhaseTreeSnapshot()) {
    std::snprintf(line, sizeof(line),
                  "  %-44s %10.3f ms  self %10.3f ms  (x%llu)\n",
                  entry.path.c_str(),
                  static_cast<double>(entry.total_ns) / 1e6,
                  static_cast<double>(entry.self_ns) / 1e6,
                  static_cast<unsigned long long>(entry.count));
    out += line;
  }
  for (const auto& [name, value] : registry.CounterValues()) {
    std::snprintf(line, sizeof(line), "  %-34s %10llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, histogram] : registry.HistogramValues()) {
    std::snprintf(line, sizeof(line),
                  "  %-34s count=%llu sum=%llu min=%llu max=%llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(histogram.count()),
                  static_cast<unsigned long long>(histogram.sum()),
                  static_cast<unsigned long long>(histogram.min()),
                  static_cast<unsigned long long>(histogram.max()));
    out += line;
  }
  return out;
}

}  // namespace wsv::obs
