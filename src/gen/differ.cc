#include "gen/differ.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "cfsm/cfsm.h"
#include "common/strings.h"
#include "ltl/property.h"
#include "modular/env_spec.h"
#include "modular/modular_verifier.h"
#include "protocol/ltl_protocol.h"
#include "protocol/protocol_verifier.h"
#include "spec/parser.h"
#include "verifier/checkpoint.h"
#include "verifier/merge.h"
#include "verifier/verifier.h"

namespace wsv::gen {
namespace {

using spec::Composition;
using verifier::IndexInterval;
using verifier::VerificationResult;

std::string Fingerprint(const Scenario& scenario) {
  return verifier::FingerprintParts(
      {scenario.spec_text, scenario.property, scenario.env_spec});
}

/// Maps a VerificationResult to the merge verdict vocabulary: a violation
/// is always "violated"; "holds" requires enumerator exhaustion (the same
/// attestation wsvc-merge demands before merging shards to "holds"), and
/// anything weaker — budget, deadline, range-end — is "incomplete".
std::string VerdictOf(const VerificationResult& result) {
  if (!result.holds) return "violated";
  return result.coverage.stop_reason == StopReason::kComplete ? "holds"
                                                              : "incomplete";
}

LegResult LegFromResult(std::string name, const VerificationResult& result) {
  LegResult leg;
  leg.name = std::move(name);
  leg.verdict = VerdictOf(result);
  if (result.counterexample.has_value()) {
    leg.has_witness = true;
    leg.witness_db_index = result.counterexample->database_index;
    leg.witness_valuation_index = result.counterexample->valuation_index;
  }
  leg.covered = verifier::IntervalsToString(result.coverage.covered);
  leg.unit = result.coverage.unit;
  leg.stop_reason = StopReasonName(result.coverage.stop_reason);
  return leg;
}

LegResult LegError(std::string name, const Status& status) {
  LegResult leg;
  leg.name = std::move(name);
  leg.error = status.ToString();
  return leg;
}

/// Parses "Peer.relation=v1,v2;v3" pinned-database flags (the wsvc --db
/// format) into per-peer NamedDatabase maps.
Result<std::vector<verifier::NamedDatabase>> BuildPinnedDatabases(
    const Composition& comp, const std::vector<std::string>& flags) {
  std::vector<verifier::NamedDatabase> dbs(comp.peers().size());
  for (const std::string& flag : flags) {
    size_t eq = flag.find('=');
    size_t dot = flag.find('.');
    if (eq == std::string::npos || dot == std::string::npos || dot > eq) {
      return Status::ParseError("bad pinned-db flag: " + flag);
    }
    std::string peer = flag.substr(0, dot);
    std::string relation = flag.substr(dot + 1, eq - dot - 1);
    size_t index = comp.PeerIndex(peer);
    if (index == Composition::kNpos) {
      return Status::NotFound("pinned-db flag names unknown peer: " + flag);
    }
    auto& rel = dbs[index][relation];
    for (const std::string& row : Split(flag.substr(eq + 1), ';')) {
      if (row.empty()) continue;
      rel.push_back(Split(row, ','));
    }
  }
  return dbs;
}

struct EngineLegConfig {
  size_t jobs = 1;
  size_t range_lo = 0;
  size_t range_hi = static_cast<size_t>(-1);
  bool count_only = false;
};

/// One engine run (closed compositions and the CFSM embedding).
Result<VerificationResult> RunEngine(const Composition& comp,
                                     const ltl::Property& property,
                                     const Scenario& scenario,
                                     const EngineLegConfig& config) {
  verifier::VerifierOptions options;
  options.run = scenario.run;
  options.fresh_domain_size = scenario.fresh;
  options.budget.max_states = scenario.max_states;
  options.jobs = config.jobs;
  options.count_only = config.count_only;
  bool pinned = !scenario.pinned_dbs.empty();
  if (pinned) {
    WSV_ASSIGN_OR_RETURN(auto dbs,
                         BuildPinnedDatabases(comp, scenario.pinned_dbs));
    options.fixed_databases = std::move(dbs);
    options.valuation_range_lo = config.range_lo;
    options.valuation_range_hi = config.range_hi;
  } else {
    options.db_range_lo = config.range_lo;
    options.db_range_hi = config.range_hi;
  }
  verifier::Verifier engine(&comp, std::move(options));
  return engine.Verify(property);
}

/// One modular run (the external-services regime).
Result<VerificationResult> RunModular(const Composition& comp,
                                      const ltl::Property& property,
                                      const modular::EnvironmentSpec& env,
                                      const Scenario& scenario,
                                      const EngineLegConfig& config) {
  modular::ModularVerifierOptions options;
  options.run = scenario.run;
  for (const auto& [channel, tuples] : scenario.env_messages) {
    options.run.env_message_candidates[channel] = tuples;
  }
  options.fresh_domain_size = scenario.fresh;
  options.budget.max_states = scenario.max_states;
  options.jobs = config.jobs;
  options.count_only = config.count_only;
  options.db_range_lo = config.range_lo;
  options.db_range_hi = config.range_hi;
  options.env_quantifier_domain = scenario.env_domain;
  modular::ModularVerifier verifier(&comp, std::move(options));
  return verifier.Verify(property, env);
}

using LegRunner =
    std::function<Result<VerificationResult>(const EngineLegConfig&)>;

/// Runs the sharded + merged leg: counts the enumeration, splits it into
/// ranges, runs each shard, and folds the ShardReports through the same
/// MergeShards wsvc-merge uses. Returns no leg when the space is too small
/// to shard or the base leg did not finish (shards re-explore with
/// independent budgets, so whole-vs-sharded is only a fair comparison on
/// finished runs).
Result<std::optional<LegResult>> RunShardedLeg(
    const std::string& name, const LegRunner& runner, const Scenario& scenario,
    const LegResult& base, size_t shards) {
  if (base.verdict == "incomplete" || !base.error.empty()) {
    return std::optional<LegResult>();
  }
  EngineLegConfig count_config;
  count_config.count_only = true;
  WSV_ASSIGN_OR_RETURN(VerificationResult counted, runner(count_config));
  const uint64_t total = counted.enumeration_count;
  if (total < 2 || shards < 2) return std::optional<LegResult>();
  const uint64_t num_shards = std::min<uint64_t>(shards, total);
  std::vector<verifier::ShardReport> reports;
  for (uint64_t s = 0; s < num_shards; ++s) {
    EngineLegConfig config;
    config.range_lo = total * s / num_shards;
    config.range_hi = s + 1 == num_shards ? static_cast<size_t>(-1)
                                          : total * (s + 1) / num_shards;
    WSV_ASSIGN_OR_RETURN(VerificationResult result, runner(config));
    verifier::ShardReport report;
    report.source = name + "[" + std::to_string(s) + "]";
    report.fingerprint = Fingerprint(scenario);
    report.holds = result.holds;
    if (result.counterexample.has_value()) {
      report.has_witness = true;
      report.witness_db_index = result.counterexample->database_index;
      report.witness_valuation_index = result.counterexample->valuation_index;
    }
    report.covered = result.coverage.covered;
    report.unit = result.coverage.unit;
    report.range_lo = result.coverage.range_lo;
    report.range_hi = result.coverage.range_hi;
    report.stop_reason = StopReasonName(result.coverage.stop_reason);
    reports.push_back(std::move(report));
  }
  WSV_ASSIGN_OR_RETURN(verifier::MergeReport merged,
                       verifier::MergeShards(reports));
  LegResult leg;
  leg.name = name;
  leg.verdict = merged.verdict;
  leg.has_witness = merged.has_witness;
  leg.witness_db_index = merged.witness_db_index;
  leg.witness_valuation_index = merged.witness_valuation_index;
  leg.covered = verifier::IntervalsToString(merged.covered);
  leg.unit = merged.unit;
  leg.stop_reason = merged.complete ? "complete" : "range-end";
  return std::optional<LegResult>(std::move(leg));
}

std::string DescribeLeg(const LegResult& leg) {
  std::ostringstream out;
  out << leg.name << "{verdict=" << leg.verdict;
  if (!leg.error.empty()) out << " error=" << leg.error;
  if (leg.has_witness) {
    out << " witness=" << leg.witness_db_index << "/"
        << leg.witness_valuation_index;
  }
  if (!leg.covered.empty()) {
    out << " covered=" << leg.covered << " unit=" << leg.unit
        << " stop=" << leg.stop_reason;
  }
  out << "}";
  return out.str();
}

/// Applies the broken-verifier test hook.
void MaybeBreak(const DiffOptions& options, LegResult* leg) {
  if (options.break_leg.empty() || leg->name != options.break_leg) return;
  if (leg->verdict == "violated") {
    leg->verdict = "holds";
    leg->has_witness = false;
  } else {
    leg->verdict = "violated";
    leg->has_witness = true;
    leg->witness_db_index = 0;
    leg->witness_valuation_index = 0;
  }
}

/// Cross-compares the legs of one family (same verification problem). The
/// first `whole` legs are full-space runs and must agree exactly; a merged
/// shard leg must agree on verdict and witness, and on coverage only for a
/// complete "holds" (a violated whole run caps its coverage at the witness
/// while shards beyond it finish their ranges — both are correct).
void CompareFamily(const std::vector<const LegResult*>& whole,
                   const LegResult* merged, std::string* detail) {
  if (!detail->empty() || whole.empty()) return;
  const LegResult& base = *whole[0];
  auto mismatch = [&](const LegResult& leg, const std::string& what) {
    *detail = what + ": " + DescribeLeg(base) + " vs " + DescribeLeg(leg);
  };
  for (const LegResult* leg : whole) {
    if (!leg->error.empty()) {
      *detail = "leg failed: " + DescribeLeg(*leg);
      return;
    }
  }
  for (size_t i = 1; i < whole.size(); ++i) {
    const LegResult& leg = *whole[i];
    if (leg.verdict != base.verdict) return mismatch(leg, "verdict mismatch");
    if (leg.has_witness != base.has_witness ||
        (leg.has_witness &&
         (leg.witness_db_index != base.witness_db_index ||
          leg.witness_valuation_index != base.witness_valuation_index))) {
      return mismatch(leg, "witness mismatch");
    }
    if (leg.covered != base.covered || leg.unit != base.unit ||
        leg.stop_reason != base.stop_reason) {
      return mismatch(leg, "coverage mismatch");
    }
  }
  if (merged != nullptr) {
    if (merged->verdict != base.verdict) {
      return mismatch(*merged, "sharded-merge verdict mismatch");
    }
    if (merged->has_witness != base.has_witness ||
        (merged->has_witness &&
         (merged->witness_db_index != base.witness_db_index ||
          merged->witness_valuation_index != base.witness_valuation_index))) {
      return mismatch(*merged, "sharded-merge witness mismatch");
    }
    if (base.verdict == "holds" && base.stop_reason == "complete" &&
        (merged->covered != base.covered || merged->unit != base.unit)) {
      return mismatch(*merged, "sharded-merge coverage mismatch");
    }
  }
}

}  // namespace

Result<ScenarioVerdict> RunDifferential(const Scenario& scenario,
                                        const DiffOptions& options) {
  WSV_ASSIGN_OR_RETURN(Composition comp,
                       spec::ParseComposition(scenario.spec_text));
  ScenarioVerdict verdict;
  const size_t jobs = options.jobs < 2 ? 2 : options.jobs;

  auto add_leg = [&](LegResult leg) -> const LegResult& {
    MaybeBreak(options, &leg);
    verdict.legs.push_back(std::move(leg));
    return verdict.legs.back();
  };

  // Verdict-producing legs over the LTL-FO property.
  if (!scenario.property.empty()) {
    WSV_ASSIGN_OR_RETURN(ltl::Property property,
                         ltl::Property::Parse(scenario.property));
    std::optional<modular::EnvironmentSpec> env;
    if (scenario.use_modular) {
      WSV_ASSIGN_OR_RETURN(modular::EnvironmentSpec parsed,
                           modular::EnvironmentSpec::Parse(scenario.env_spec));
      env = std::move(parsed);
    }
    const std::string family = scenario.use_modular ? "modular" : "engine";
    LegRunner runner = [&](const EngineLegConfig& config) {
      return scenario.use_modular
                 ? RunModular(comp, property, *env, scenario, config)
                 : RunEngine(comp, property, scenario, config);
    };
    auto run_whole = [&](const std::string& name,
                         const EngineLegConfig& config) {
      Result<VerificationResult> result = runner(config);
      add_leg(result.ok() ? LegFromResult(name, result.value())
                          : LegError(name, result.status()));
    };
    run_whole(family, {});
    EngineLegConfig parallel;
    parallel.jobs = jobs;
    run_whole(family + "-jobs" + std::to_string(jobs), parallel);

    // Sharded + merged leg, driven off the (possibly broken) base leg.
    std::optional<LegResult> merged_leg;
    {
      Result<std::optional<LegResult>> sharded = RunShardedLeg(
          family + "-shards", runner, scenario, verdict.legs[0],
          options.shards);
      if (!sharded.ok()) {
        add_leg(LegError(family + "-shards", sharded.status()));
      } else if (sharded.value().has_value()) {
        merged_leg = add_leg(std::move(*sharded.value()));
      }
    }

    std::vector<const LegResult*> whole = {&verdict.legs[0],
                                           &verdict.legs[1]};
    CompareFamily(whole, merged_leg ? &verdict.legs.back() : nullptr,
                  &verdict.detail);
  }

  // CFSM scenarios: the exact explorer and a data-agnostic protocol leg.
  if (scenario.has_cfsm && verdict.detail.empty()) {
    const bool has_engine_leg = !verdict.legs.empty();
    cfsm::ExploreOptions explore;
    explore.queue_bound = scenario.run.queue_bound;
    explore.lossy = scenario.run.lossy;
    Result<cfsm::ExploreResult> explored =
        cfsm::CfsmExplorer(&scenario.cfsm_system, explore)
            .Explore(scenario.cfsm_target);
    LegResult explorer;
    explorer.name = "cfsm-explorer";
    if (!explored.ok()) {
      explorer.error = explored.status().ToString();
    } else if (explored->budget_exhausted) {
      explorer.verdict = "incomplete";
    } else {
      explorer.verdict = explored->target_reached ? "violated" : "holds";
    }
    const LegResult& explorer_leg = add_leg(std::move(explorer));
    // Taken after add_leg, whose push_back may reallocate the legs.
    const LegResult* engine_leg = has_engine_leg ? &verdict.legs[0] : nullptr;
    if (!explorer_leg.error.empty()) {
      verdict.detail = "leg failed: " + DescribeLeg(explorer_leg);
    } else if (engine_leg != nullptr && engine_leg->verdict == "violated" &&
               explorer_leg.verdict == "holds") {
      // Embedded runs are lossy-CFSM runs (the per-move queue drain maps to
      // losses), so a control pair the embedding reaches must be reachable
      // for the explorer; the converse does not hold.
      verdict.detail =
          "embedding reached a control pair the CFSM explorer proves "
          "unreachable: " +
          DescribeLeg(*engine_leg) + " vs " + DescribeLeg(explorer_leg);
    }
  }
  if (scenario.has_cfsm && !scenario.protocol_ltl.empty() &&
      verdict.detail.empty()) {
    auto run_protocol = [&](const std::string& name, size_t leg_jobs) {
      Result<protocol::ConversationProtocol> proto =
          protocol::DataAgnosticProtocolFromLtl(comp, scenario.protocol_ltl);
      if (!proto.ok()) {
        add_leg(LegError(name, proto.status()));
        return;
      }
      protocol::ProtocolVerifierOptions popts;
      popts.run = scenario.run;
      popts.fresh_domain_size = scenario.fresh;
      popts.budget.max_states = scenario.max_states;
      popts.jobs = leg_jobs;
      protocol::ProtocolVerifier verifier(&comp, std::move(popts));
      Result<VerificationResult> result = verifier.Verify(proto.value());
      add_leg(result.ok() ? LegFromResult(name, result.value())
                          : LegError(name, result.status()));
    };
    size_t first = verdict.legs.size();
    run_protocol("protocol", 1);
    run_protocol("protocol-jobs" + std::to_string(jobs), jobs);
    std::vector<const LegResult*> whole = {&verdict.legs[first],
                                           &verdict.legs[first + 1]};
    CompareFamily(whole, nullptr, &verdict.detail);
  }

  verdict.ok = verdict.detail.empty();
  return verdict;
}

Result<ShrinkResult> Shrink(const Scenario& scenario,
                            const DiffOptions& options) {
  ShrinkResult best;
  best.scenario = scenario;
  WSV_ASSIGN_OR_RETURN(best.verdict, RunDifferential(scenario, options));
  if (best.verdict.ok) return best;

  struct Axis {
    size_t Dials::* field;
    size_t min;
  };
  static constexpr Axis kAxes[] = {
      {&Dials::num_peers, 2},  {&Dials::num_constants, 1},
      {&Dials::max_extra_rules, 0}, {&Dials::fresh, 1},
      {&Dials::queue_bound, 1},
  };
  constexpr size_t kMaxAttempts = 48;
  GenOptions current = scenario.options;
  bool progress = true;
  while (progress && best.attempts < kMaxAttempts) {
    progress = false;
    for (const Axis& axis : kAxes) {
      while (current.dials.*axis.field > axis.min &&
             best.attempts < kMaxAttempts) {
        GenOptions trial = current;
        trial.dials.*axis.field -= 1;
        Result<Scenario> smaller = GenerateScenario(trial);
        if (!smaller.ok()) break;
        Result<ScenarioVerdict> outcome =
            RunDifferential(smaller.value(), options);
        ++best.attempts;
        if (!outcome.ok() || outcome.value().ok) break;
        current = trial;
        best.scenario = std::move(smaller).value();
        best.verdict = std::move(outcome).value();
        progress = true;
      }
    }
  }
  return best;
}

namespace {

std::string FirstLine(const std::string& text) {
  size_t eol = text.find('\n');
  return eol == std::string::npos ? text : text.substr(0, eol);
}

std::string RenderRunOptions(const runtime::RunOptions& run) {
  std::ostringstream out;
  out << "queue_bound=" << run.queue_bound << " lossy=" << (run.lossy ? 1 : 0)
      << " perfect_nested=" << (run.perfect_nested ? 1 : 0)
      << " detflat=" << (run.deterministic_flat_sends ? 1 : 0)
      << " env=" << (run.allow_env_moves ? 1 : 0);
  return out.str();
}

Result<size_t> ParseSize(const std::string& text) {
  size_t value = 0;
  std::istringstream in(text);
  in >> value;
  if (in.fail() || !in.eof()) {
    return Status::ParseError("bad number in corpus directive: " + text);
  }
  return value;
}

Status ApplyKeyValues(const std::string& text,
                      const std::map<std::string, size_t*>& fields) {
  for (const std::string& part : Split(text, ' ')) {
    if (part.empty()) continue;
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("bad key=value in corpus directive: " + part);
    }
    auto it = fields.find(part.substr(0, eq));
    if (it == fields.end()) {
      return Status::ParseError("unknown corpus key: " + part);
    }
    WSV_ASSIGN_OR_RETURN(*it->second, ParseSize(part.substr(eq + 1)));
  }
  return Status::Ok();
}

}  // namespace

std::string RenderCorpusFile(const Scenario& scenario,
                             const DiffOptions& options,
                             const ScenarioVerdict& verdict) {
  const Dials& d = scenario.options.dials;
  std::ostringstream out;
  out << "//! wsvc-fuzz repro\n";
  out << "//! seed: " << scenario.options.seed << "\n";
  out << "//! regime: " << RegimeName(scenario.options.regime) << "\n";
  out << "//! dials: " << d.ToString() << "\n";
  if (!scenario.property.empty()) {
    out << "//! property: " << scenario.property << "\n";
  }
  if (!scenario.protocol_ltl.empty()) {
    out << "//! protocol: " << scenario.protocol_ltl << "\n";
  }
  if (!scenario.env_spec.empty()) {
    out << "//! envspec: " << scenario.env_spec << "\n";
  }
  for (const auto& [channel, tuples] : scenario.env_messages) {
    std::vector<std::string> rows;
    for (const std::vector<std::string>& tuple : tuples) {
      rows.push_back(Join(tuple, ","));
    }
    out << "//! envmsg: " << channel << "=" << Join(rows, ";") << "\n";
  }
  if (!scenario.env_domain.empty()) {
    out << "//! envdomain: " << Join(scenario.env_domain, ",") << "\n";
  }
  for (const std::string& flag : scenario.pinned_dbs) {
    out << "//! db: " << flag << "\n";
  }
  out << "//! run: " << RenderRunOptions(scenario.run) << "\n";
  out << "//! fresh: " << scenario.fresh << "\n";
  out << "//! max-states: " << scenario.max_states << "\n";
  if (scenario.use_modular) out << "//! modular: 1\n";
  out << "//! legs: jobs=" << options.jobs << " shards=" << options.shards
      << "\n";
  if (!options.break_leg.empty()) {
    out << "//! break-leg: " << options.break_leg << "\n";
  }
  if (!verdict.detail.empty()) {
    out << "//! detail: " << FirstLine(verdict.detail) << "\n";
  }
  out << scenario.spec_text;
  return out.str();
}

Result<CorpusCase> ParseCorpusFile(const std::string& text) {
  std::map<std::string, std::string> directives;
  std::vector<std::string> db_flags;
  std::vector<std::pair<std::string, std::vector<std::vector<std::string>>>>
      env_messages;
  std::string spec_text;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!StartsWith(line, "//!")) {
      spec_text += line;
      spec_text += "\n";
      continue;
    }
    std::string body(Trim(line.substr(3)));
    size_t colon = body.find(':');
    if (colon == std::string::npos) continue;  // the "wsvc-fuzz repro" banner
    std::string key(Trim(body.substr(0, colon)));
    std::string value(Trim(body.substr(colon + 1)));
    if (key == "db") {
      db_flags.push_back(value);
    } else if (key == "envmsg") {
      size_t eq = value.find('=');
      if (eq == std::string::npos) {
        return Status::ParseError("bad envmsg directive: " + value);
      }
      std::vector<std::vector<std::string>> tuples;
      for (const std::string& row : Split(value.substr(eq + 1), ';')) {
        if (!row.empty()) tuples.push_back(Split(row, ','));
      }
      env_messages.emplace_back(value.substr(0, eq), std::move(tuples));
    } else {
      directives[key] = value;
    }
  }

  CorpusCase corpus;
  Scenario& scenario = corpus.scenario;
  auto regime = RegimeFromName(directives.count("regime")
                                   ? directives["regime"]
                                   : std::string());
  if (!regime.has_value()) {
    return Status::ParseError("corpus file missing/bad regime directive");
  }
  scenario.options.regime = *regime;
  if (directives.count("seed")) {
    WSV_ASSIGN_OR_RETURN(size_t seed, ParseSize(directives["seed"]));
    scenario.options.seed = seed;
  }
  if (directives.count("dials")) {
    Dials& d = scenario.options.dials;
    WSV_RETURN_IF_ERROR(ApplyKeyValues(
        directives["dials"],
        {{"peers", &d.num_peers},
         {"consts", &d.num_constants},
         {"rules", &d.max_extra_rules},
         {"fresh", &d.fresh},
         {"qb", &d.queue_bound}}));
  }
  if (directives.count("legs")) {
    WSV_RETURN_IF_ERROR(ApplyKeyValues(directives["legs"],
                                       {{"jobs", &corpus.diff.jobs},
                                        {"shards", &corpus.diff.shards}}));
  }

  // Prefer regenerating: when (seed, regime, dials) still produce the
  // recorded bytes the full scenario — including the CFSM cross-check
  // payload — replays; otherwise the recorded directives stand alone.
  Result<Scenario> regenerated = GenerateScenario(scenario.options);
  if (regenerated.ok() && regenerated.value().spec_text == spec_text) {
    corpus.scenario = std::move(regenerated).value();
    corpus.regenerated = true;
    return corpus;
  }

  scenario.spec_text = spec_text;
  scenario.name = "corpus_" + std::string(RegimeName(*regime));
  if (directives.count("property")) scenario.property = directives["property"];
  if (directives.count("protocol")) {
    scenario.protocol_ltl = directives["protocol"];
  }
  if (directives.count("envspec")) scenario.env_spec = directives["envspec"];
  if (directives.count("envdomain")) {
    for (const std::string& value : Split(directives["envdomain"], ',')) {
      if (!value.empty()) scenario.env_domain.push_back(value);
    }
  }
  scenario.env_messages = std::move(env_messages);
  scenario.pinned_dbs = std::move(db_flags);
  if (directives.count("run")) {
    size_t lossy = 1, perfect_nested = 0, detflat = 0, env = 0;
    WSV_RETURN_IF_ERROR(
        ApplyKeyValues(directives["run"],
                       {{"queue_bound", &scenario.run.queue_bound},
                        {"lossy", &lossy},
                        {"perfect_nested", &perfect_nested},
                        {"detflat", &detflat},
                        {"env", &env}}));
    scenario.run.lossy = lossy != 0;
    scenario.run.perfect_nested = perfect_nested != 0;
    scenario.run.deterministic_flat_sends = detflat != 0;
    scenario.run.allow_env_moves = env != 0;
  }
  if (directives.count("fresh")) {
    WSV_ASSIGN_OR_RETURN(scenario.fresh, ParseSize(directives["fresh"]));
  }
  if (directives.count("max-states")) {
    WSV_ASSIGN_OR_RETURN(scenario.max_states,
                         ParseSize(directives["max-states"]));
  }
  scenario.use_modular = directives.count("modular") != 0;
  // The CFSM system is not serialized; a drifted cfsm repro replays the
  // engine + protocol legs against the recorded embedding only.
  scenario.has_cfsm = false;
  if (*regime == Regime::kCfsm) scenario.protocol_ltl.clear();
  return corpus;
}

}  // namespace wsv::gen
