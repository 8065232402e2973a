#ifndef WSVERIFY_VERIFIER_CHECKPOINT_H_
#define WSVERIFY_VERIFIER_CHECKPOINT_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/run_control.h"
#include "common/status.h"

namespace wsv::verifier {

/// Half-open [lo, hi) interval of the deterministic enumeration order.
using IndexInterval = std::pair<uint64_t, uint64_t>;

/// Sorts, drops empty intervals, and merges overlapping/adjacent ones, so
/// the result is the canonical disjoint representation of the same index
/// set. Every helper below expects (and every producer emits) this form.
std::vector<IndexInterval> NormalizeIntervals(std::vector<IndexInterval> set);

/// Adds [lo, hi) to a normalized set, keeping it normalized.
void AddInterval(std::vector<IndexInterval>* set, uint64_t lo, uint64_t hi);

/// True when `index` lies inside some interval of the normalized set.
bool IntervalsContain(const std::vector<IndexInterval>& set, uint64_t index);

/// The set restricted to [lo, hi) (used to cap a violated run's coverage at
/// the witness index so a resume re-finds it).
std::vector<IndexInterval> IntersectIntervals(
    const std::vector<IndexInterval>& set, uint64_t lo, uint64_t hi);

/// Length of the contiguous covered run starting at index 0 — the v1
/// completed-prefix view of an interval set (0 when index 0 is uncovered).
uint64_t ContiguousPrefix(const std::vector<IndexInterval>& set);

/// The uncovered holes of [0, end) relative to the normalized set — what a
/// merge must report as gaps before a "holds" verdict is trustworthy.
std::vector<IndexInterval> IntervalGaps(const std::vector<IndexInterval>& set,
                                        uint64_t end);

/// Where a resumed run of work unit [lo, ...) should start: the end of the
/// covered interval containing `lo`, or `lo` itself when it is uncovered.
/// (The sweep dispatches one contiguous segment per leg, so covered
/// intervals beyond the first hole are conservatively re-checked.)
uint64_t ResumeStart(const std::vector<IndexInterval>& set, uint64_t lo);

/// Renders "lo:hi,lo:hi" (or "-" for the empty set); the inverse of
/// ParseIntervals. Used by the checkpoint format and diagnostics.
std::string IntervalsToString(const std::vector<IndexInterval>& set);

/// Parses IntervalsToString output; rejects malformed text or lo > hi.
Result<std::vector<IndexInterval>> ParseIntervals(const std::string& text);

/// Persistent progress of a database (or valuation) sweep, keyed to the
/// deterministic enumeration order. `covered` is a normalized set of
/// disjoint [lo, hi) intervals: every index inside it was either fully
/// checked (no violation) or recorded in `failed_indices`. Only format
/// version 3 is read and written. Resuming fast-forwards the enumerator
/// past the covered run containing the shard's range start, so the resumed
/// run's verdict, witness index and lasso are bit-for-bit what an
/// uninterrupted run over the same range would have produced.
struct Checkpoint {
  /// Guards against resuming with a different spec/property/options; the
  /// reader rejects a mismatch. Empty disables the check.
  std::string fingerprint;
  /// Disjoint covered intervals. WriteCheckpoint normalizes them and also
  /// writes their contiguous run from index 0 as the v3 format's
  /// "completed_prefix" line, which the reader requires but ignores.
  std::vector<IndexInterval> covered;
  /// Enumeration indices (inside `covered`) whose checks failed hard and
  /// were skipped under --on-db-error skip.
  std::vector<uint64_t> failed_indices;
  /// Work units completed at write time, including out-of-order completions
  /// ahead of the covered intervals (informational aggregate).
  uint64_t databases_completed = 0;
  /// Why the writing run stopped; "in-progress" for periodic mid-run
  /// checkpoints, "range-end" for a shard that finished its --db-range.
  std::string stop_reason = "in-progress";
  /// What the covered indices enumerate: "database" for sweep checkpoints,
  /// "valuation" for pinned-database valuation shards.
  std::string unit = "database";
};

/// Atomically and durably publishes `doc` at `path`: writes "<path>.tmp"
/// (removing any stale temp from a crashed writer first), fsyncs it,
/// renames it over the target and fsyncs the containing directory, so a
/// crash leaves the old file or the new one, never a torn one, and the
/// publish survives power loss. `keep_backup` keeps the previous file as
/// "<path>.bak". `fault_site` (may be null) is a WSV_FAULT site checked
/// halfway through the write. `what` names the document in errors.
Status PublishDurably(const std::string& path, std::string_view doc,
                      const std::string& what, bool keep_backup,
                      const char* fault_site);

/// Persists `cp` to `path` with PublishDurably, keeping the previous good
/// checkpoint as "<path>.bak" for recovery. Writes format version 3: the
/// covered intervals plus a CRC32 content trailer, so a torn or bit-flipped
/// file is detected on read instead of being trusted.
Status WriteCheckpoint(const std::string& path, const Checkpoint& cp);

/// Parses a checkpoint written by WriteCheckpoint (format version 3).
/// Corrupted, truncated (missing the trailing "end" marker), CRC-mismatched
/// or other-version files (including the retired v1 and v2) are rejected
/// with kParseError; when `expected_fingerprint` is non-empty, a
/// mismatch is rejected with kInvalidSpec.
Result<Checkpoint> ReadCheckpoint(const std::string& path,
                                  const std::string& expected_fingerprint);

/// ReadCheckpoint result plus where it came from.
struct RecoveredCheckpoint {
  Checkpoint checkpoint;
  /// True when the primary file was unusable and "<path>.bak" supplied the
  /// data (the `checkpoint.recoveries` counter is bumped alongside).
  bool recovered_from_backup = false;
};

/// ReadCheckpoint with automatic fallback: when `path` is corrupted or
/// missing, "<path>.bak" (the previous good checkpoint the writer keeps) is
/// tried before giving up, so one torn write costs one checkpoint interval
/// of progress instead of the whole run. A fingerprint mismatch on either
/// file stays a hard kInvalidSpec error — recovery must never resurrect a
/// different problem's progress.
Result<RecoveredCheckpoint> ReadCheckpointWithRecovery(
    const std::string& path, const std::string& expected_fingerprint);

/// CRC32 (IEEE 802.3, reflected) over `data` — the checksum the v3
/// checkpoint trailer carries. Exposed for tests that forge corruption.
uint32_t Crc32(std::string_view data);

/// FNV-1a-64 over the concatenation of `parts` (length-prefixed, so part
/// boundaries are unambiguous), rendered as 16 hex digits. Used to
/// fingerprint (spec text, property, enumeration-affecting options).
std::string FingerprintParts(std::initializer_list<std::string_view> parts);

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_CHECKPOINT_H_
