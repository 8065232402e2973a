#ifndef WSVERIFY_OBS_STATS_JSON_H_
#define WSVERIFY_OBS_STATS_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace wsv::obs {

/// Version of the stats-JSON document layout. Bump when a required key
/// changes meaning or disappears; adding keys is backward compatible.
/// v2 added the profiling sections: workers, locks, phases.
/// v3 added the process section (peak memory).
/// v4 added the valuation accounting (checked by the schema tool).
/// v5 dropped the flat timer map: the phase tree ("phases") is the one
/// record of phase time.
inline constexpr int kStatsSchemaVersion = 5;

/// The stats document always contains these top-level keys
/// (tools/check_stats_schema.py enforces the same list):
///   schema_version : int   — kStatsSchemaVersion
///   generator      : str   — producing tool ("wsvc", test binaries, ...)
///   counters       : {name: int}
///   histograms     : {name: {count, sum, min, max, buckets: [int]}}
///   workers        : {name: {wall_ns, exec_ns, idle_ns, lock_wait_ns,
///                            drain_ns, tasks, utilization}}
///   locks          : {site: {acquisitions, contended, wait_ns}}
///   phases         : [{path, total_ns, self_ns, count}]
///   process        : {max_rss_kb: int}
/// `workers` snapshots the per-thread time ledgers (utilization is
/// exec_ns / wall_ns); `locks` regroups the lock.<site>.* counters per
/// site; `phases` is the flattened phase tree (paths join nested phase
/// names with '/'); `process` holds host-side resource peaks (max RSS via
/// getrusage, in KiB; 0 where unsupported). Callers append further
/// sections (command, verdict, ...) via `extra`.

/// Peak resident set size of this process in KiB (getrusage ru_maxrss);
/// 0 on platforms without getrusage.
size_t ProcessMaxRssKb();

/// Renders the versioned stats document from a registry snapshot.
/// `extra` entries are (key, pre-rendered JSON value) appended at top level;
/// keys must not collide with the required ones.
std::string RenderStatsJson(
    const Registry& registry, const std::string& generator,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

/// Writes RenderStatsJson output to `path`.
Status WriteStatsJson(
    const Registry& registry, const std::string& generator,
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

/// Writes `entries` as the array value of a "phases" section, one
/// {path, total_ns, self_ns, count} object each. The stats document and
/// the wsvc-merge shard roll-up both write their phase trees through it.
void WritePhaseEntries(JsonWriter& w,
                       const std::vector<PhaseTreeEntry>& entries);

/// Renders a human-readable summary for `wsvc -v`: one line per phase-tree
/// path (total and self milliseconds, entry count), then one aligned
/// "name value" line per counter and histogram of the registry.
std::string RenderTextSummary(const Registry& registry);

}  // namespace wsv::obs

#endif  // WSVERIFY_OBS_STATS_JSON_H_
