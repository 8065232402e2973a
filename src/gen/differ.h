#ifndef WSVERIFY_GEN_DIFFER_H_
#define WSVERIFY_GEN_DIFFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gen/generator.h"

namespace wsv::gen {

/// One verifier leg's observable outcome, normalized to what wsvc-merge
/// compares across shards: verdict, witness indices, covered intervals.
struct LegResult {
  std::string name;  // "engine", "engine-jobs2", "engine-shards", ...
  std::string verdict = "incomplete";  // "violated" | "holds" | "incomplete"
  bool has_witness = false;
  uint64_t witness_db_index = 0;
  uint64_t witness_valuation_index = 0;
  /// IntervalsToString of the covered set ("" when the leg has no coverage
  /// notion, e.g. the CFSM explorer).
  std::string covered;
  std::string unit;
  std::string stop_reason;
  /// Non-empty when the leg failed to run at all (spec/property rejected,
  /// internal error) — always a mismatch.
  std::string error;
};

struct DiffOptions {
  /// Thread count of the parallel legs (serial-vs-jobs differential).
  size_t jobs = 2;
  /// Shard count of the sharded + merged leg (whole-vs-sharded
  /// differential); sharding is skipped when the enumeration is smaller.
  size_t shards = 2;
  /// Test hook: flip this leg's verdict after it runs, simulating a buggy
  /// verifier so the mismatch -> shrink -> repro pipeline can be exercised
  /// end to end ("" = off). Also settable via the WSV_FUZZ_BREAK
  /// environment variable in wsvc-fuzz.
  std::string break_leg;
};

/// The outcome of running every applicable leg of one scenario.
struct ScenarioVerdict {
  /// True when every leg pair that must agree did agree.
  bool ok = false;
  /// Human-readable description of the first disagreement ("" when ok).
  std::string detail;
  std::vector<LegResult> legs;
};

/// Runs every verifier leg applicable to the scenario's regime and
/// cross-compares verdicts, witness indices and coverage:
///
///  * engine serial vs `jobs` vs sharded + merged
///    (closed regimes; the CFSM embedding adds the exact explorer and a
///    data-agnostic protocol leg);
///  * modular serial vs `jobs` vs sharded + merged (external
///    regime, against the scenario's environment spec).
///
/// A Status error means the harness itself could not run (generator bug);
/// verifier disagreements are reported in ScenarioVerdict, not as errors.
Result<ScenarioVerdict> RunDifferential(const Scenario& scenario,
                                        const DiffOptions& options);

/// Greedy minimization: re-generates the scenario's (seed, regime) at
/// smaller dials — fewer peers, fewer constants, fewer extra rules, smaller
/// domain, smaller queue bound — accepting each step while the mismatch
/// persists. Returns the smallest still-failing scenario.
struct ShrinkResult {
  Scenario scenario;
  ScenarioVerdict verdict;
  size_t attempts = 0;
};
Result<ShrinkResult> Shrink(const Scenario& scenario,
                            const DiffOptions& options);

/// Renders a self-contained corpus repro: `//!` directive header (seed,
/// regime, dials, property, run semantics, pinned databases, diff options,
/// mismatch detail) followed by the spec text.
std::string RenderCorpusFile(const Scenario& scenario,
                             const DiffOptions& options,
                             const ScenarioVerdict& verdict);

/// Parses a corpus file back into a replayable scenario. When the
/// recorded (seed, regime, dials) still generate byte-identical spec text,
/// the full generated scenario is used (including the CFSM cross-check
/// payload); otherwise the recorded text and directives stand alone, so
/// committed repros outlive generator evolution. The recorded break-leg is
/// NOT replayed: a repro must reproduce honestly or pass.
struct CorpusCase {
  Scenario scenario;
  DiffOptions diff;
  /// True when the scenario was re-generated from (seed, regime, dials).
  bool regenerated = false;
};
Result<CorpusCase> ParseCorpusFile(const std::string& text);

}  // namespace wsv::gen

#endif  // WSVERIFY_GEN_DIFFER_H_
