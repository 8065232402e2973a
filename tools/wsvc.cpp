// wsvc — the wsverify command-line verifier.
//
// Commands and flags live in the flag table in cli.cc, which also renders
// the usage text; README.md ("Observability") documents the stats/trace
// output formats.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cli.h"
#include "common/run_control.h"
#include "common/strings.h"
#include "ltl/property.h"
#include "modular/modular_verifier.h"
#include "obs/obs.h"
#include "protocol/ltl_protocol.h"
#include "protocol/protocol_verifier.h"
#include "runtime/simulator.h"
#include "spec/parser.h"
#include "spec/printer.h"
#include "verifier/checkpoint.h"
#include "verifier/merge.h"
#include "verifier/verifier.h"

namespace {

using namespace wsv;

/// What the executed command produced, for the stats-JSON verdict section.
struct CliReport {
  const char* kind = nullptr;  // "property" | "protocol" | "modular"
  std::optional<verifier::VerificationResult> result;
  /// Spec/property/options fingerprint — emitted in the verdict JSON so
  /// wsvc-merge can check shard compatibility.
  std::string fingerprint;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open spec file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Fills the options verify, protocol and modular share from the flags:
/// semantics, domain, budgets, ranges, pinned databases and
/// the robustness options (deadline/cancel token, fault isolation,
/// checkpoint/resume). The fingerprint covers everything that determines
/// the enumeration order and the verdict (command, spec source,
/// property/protocol/env, domain- and semantics-shaping flags, the queue
/// bound and the fresh-value count as resolved numbers, so `--fresh 02`
/// matches `--fresh 2` and an omitted flag its default) — but NOT
/// --jobs, --max-databases, --db-range or budgets: resuming or sharding with
/// different resource limits is exactly the point. It is always computed
/// (the verdict JSON carries it so wsvc-merge can refuse cross-problem
/// merges), checkpoint or not. Returns 0, or the exit code on a
/// flag/checkpoint error.
int OptionsFromFlags(const cli::ParsedArgs& args,
                     const std::string& spec_source,
                     const spec::Composition& comp,
                     verifier::VerifierOptions* out) {
  out->run.queue_bound = args.Number("--queue-bound", 1);
  out->run.lossy = !args.Has("--perfect");
  out->fresh_domain_size = args.Number("--fresh", 1);
  out->budget.max_states = args.Number("--max-states", 4000000);
  out->max_databases = args.Number("--max-databases", SIZE_MAX);
  out->jobs = args.Number("--jobs", 1);
  // One range in the run's unit: databases on a sweep, valuations on a
  // pinned (--db) run.
  const bool pinned = args.Has("--db");
  if (pinned && args.Has("--db-range")) {
    std::fprintf(stderr,
                 "wsvc: --db-range shards a database sweep; a run on pinned "
                 "databases (--db) shards with --valuation-range\n");
    return 2;
  }
  if (!pinned && args.Has("--valuation-range")) {
    std::fprintf(stderr,
                 "wsvc: --valuation-range requires pinned databases (--db): "
                 "database sweeps shard with --db-range instead\n");
    return 2;
  }
  if (auto range = args.Range(pinned ? "--valuation-range" : "--db-range")) {
    std::tie(out->range_lo, out->range_hi) = *range;
  }
  out->count_only = args.Has("--count-databases");
  if (pinned) {
    auto dbs = verifier::ParseNamedDatabases(comp, args.All("--db"));
    if (!dbs.ok()) {
      std::fprintf(stderr, "%s\n", dbs.status().ToString().c_str());
      return 2;
    }
    out->fixed_databases = std::move(*dbs);
  }

  out->control = &RunControl::Global();
  uint64_t deadline_ms = args.Number("--deadline-ms", 0);
  if (deadline_ms > 0) out->control->ArmDeadlineMs(deadline_ms);
  // The CLI skips hard-failing databases by default; the library aborts.
  out->on_db_error = args.Get("--on-db-error") == "abort"
                         ? verifier::OnDbError::kAbort
                         : verifier::OnDbError::kSkip;
  std::string dbs_joined;
  for (const std::string& db : args.All("--db")) dbs_joined += db + "\n";
  std::string env_msgs_joined;
  for (const std::string& msg : args.All("--env-msg")) {
    env_msgs_joined += msg + "\n";
  }
  out->checkpoint_fingerprint = verifier::FingerprintParts(
      {args.command, spec_source, args.Get("--property"), args.Get("--ltl"),
       args.Get("--env"), args.Get("--observer"),
       std::to_string(out->run.queue_bound),
       args.Has("--perfect") ? "perfect" : "lossy",
       std::to_string(out->fresh_domain_size),
       args.Get("--env-domain"), dbs_joined, env_msgs_joined});
  if (!args.Has("--checkpoint")) {
    if (args.Has("--resume")) {
      std::fprintf(stderr, "wsvc: --resume requires --checkpoint <file>\n");
      return 2;
    }
    return 0;
  }
  out->checkpoint_path = args.Get("--checkpoint");
  out->checkpoint_every = args.Number("--checkpoint-every", 64);
  if (args.Has("--resume")) {
    auto loaded = verifier::ReadCheckpointWithRecovery(
        out->checkpoint_path, out->checkpoint_fingerprint);
    if (!loaded.ok()) {
      // A fingerprint mismatch is a user error (wrong problem, wrong
      // file) and stays fatal. A missing or unrecoverably corrupted
      // checkpoint just means no usable progress: a supervisor relaunching
      // a shard that died before its first write must not fail here, so
      // the run starts fresh from its range instead.
      if (loaded.status().code() == StatusCode::kInvalidSpec) {
        std::fprintf(stderr, "wsvc: --resume: %s\n",
                     loaded.status().ToString().c_str());
        return 2;
      }
      std::fprintf(stderr,
                   "wsvc: --resume: %s; starting fresh\n",
                   loaded.status().message().c_str());
      return 0;
    }
    const verifier::Checkpoint& cp = loaded->checkpoint;
    if (pinned) {
      std::fprintf(stderr,
                   "wsvc: --resume: a run on pinned databases re-checks "
                   "them; checkpoint coverage %s is not skipped\n",
                   verifier::IntervalsToString(cp.covered).c_str());
      return 0;
    }
    // A range shard resumes from the end of the covered interval containing
    // its own range start, not from the global prefix.
    out->resume_covered = cp.covered;
    out->resume_failed.assign(cp.failed_indices.begin(),
                              cp.failed_indices.end());
    std::fprintf(stderr,
                 "wsvc: resuming past covered %s (%zu previously failed)%s\n",
                 verifier::IntervalsToString(cp.covered).c_str(),
                 out->resume_failed.size(),
                 loaded->recovered_from_backup ? " [recovered from .bak]"
                                               : "");
  }
  return 0;
}


void PrintVerdict(const char* what, const verifier::VerificationResult& r) {
  std::printf("%s: %s\n", what, r.holds ? "HOLDS" : "VIOLATED");
  std::printf("  regime: %s\n",
              r.regime.ok() ? "decidable" : r.regime.message().c_str());
  std::printf("  databases: %zu, searches: %zu (+%zu prefiltered), "
              "snapshots: %zu, product states: %zu\n",
              r.stats.databases_checked, r.stats.searches, r.stats.prefiltered,
              r.stats.search.snapshots, r.stats.search.product_states);
  if (r.coverage.stop_reason != StopReason::kComplete) {
    std::printf("  coverage: stopped early (%s); completed database prefix: "
                "%zu, failed: %zu, retries: %zu\n",
                StopReasonName(r.coverage.stop_reason),
                r.coverage.completed_prefix,
                r.coverage.failed_db_indices.size(), r.coverage.db_retries);
  }
}

int RunCheck(spec::Composition& comp) {
  std::printf("composition '%s': %zu peer(s), %zu channel(s), %s\n",
              comp.name().c_str(), comp.peers().size(),
              comp.channels().size(), comp.IsClosed() ? "closed" : "open");
  for (const spec::Channel& ch : comp.channels()) {
    std::printf("  channel %-16s %s -> %s (%s, arity %zu)\n", ch.name.c_str(),
                ch.FromEnvironment() ? "env"
                                     : comp.peers()[ch.sender].name().c_str(),
                ch.ToEnvironment() ? "env"
                                   : comp.peers()[ch.receiver].name().c_str(),
                ch.kind == spec::QueueKind::kFlat ? "flat" : "nested",
                ch.arity());
  }
  Status ib = comp.CheckInputBounded();
  if (ib.ok()) {
    std::printf("input-bounded: yes (Theorem 3.4's decidable class)\n");
  } else {
    std::printf("input-bounded: NO — %s\n", ib.message().c_str());
  }
  return 0;
}

/// The verdict tail of verify, protocol and modular: prints the enumeration
/// size (count-only) or the verdict and, with --trace, the counterexample;
/// records the result for the stats JSON and returns the exit code.
int FinishVerification(const cli::ParsedArgs& args,
                       const spec::Composition& comp, const char* kind,
                       const verifier::VerifierOptions& options,
                       Result<verifier::VerificationResult> result,
                       const Interner& interner, CliReport* report) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  report->kind = kind;
  report->fingerprint = options.checkpoint_fingerprint;
  int rc = 0;
  if (options.count_only) {
    std::printf("enumeration space: %zu %s(s)\n", result->enumeration_count,
                result->coverage.unit.c_str());
  } else {
    PrintVerdict(kind, *result);
    if (args.Has("--trace") && result->counterexample.has_value()) {
      std::printf("%s",
                  result->counterexample->ToString(comp, interner).c_str());
    }
    rc = verifier::VerdictExitCode(*result);
  }
  report->result = std::move(*result);
  return rc;
}

int RunVerify(const cli::ParsedArgs& args, const std::string& spec_source,
              spec::Composition& comp, CliReport* report) {
  auto property = ltl::Property::Parse(args.Get("--property"));
  if (!property.ok()) {
    std::fprintf(stderr, "property: %s\n",
                 property.status().ToString().c_str());
    return 2;
  }
  verifier::VerifierOptions options;
  if (int rc = OptionsFromFlags(args, spec_source, comp, &options); rc != 0) {
    return rc;
  }
  verifier::Verifier verifier(&comp, options);
  auto result = verifier.Verify(*property);
  return FinishVerification(args, comp, "property", options,
                            std::move(result), verifier.interner(), report);
}

int RunProtocol(const cli::ParsedArgs& args, const std::string& spec_source,
                spec::Composition& comp, CliReport* report) {
  auto observer = args.Has("--observer")
                      ? protocol::ObserverSemantics::kAtSource
                      : protocol::ObserverSemantics::kAtRecipient;
  auto proto = protocol::DataAgnosticProtocolFromLtl(comp, args.Get("--ltl"),
                                                     observer);
  if (!proto.ok()) {
    std::fprintf(stderr, "protocol: %s\n", proto.status().ToString().c_str());
    return 2;
  }
  protocol::ProtocolVerifierOptions options;
  if (int rc = OptionsFromFlags(args, spec_source, comp, &options); rc != 0) {
    return rc;
  }
  protocol::ProtocolVerifier verifier(&comp, options);
  auto result = verifier.Verify(*proto);
  return FinishVerification(args, comp, "protocol", options,
                            std::move(result), verifier.interner(), report);
}

int RunModular(const cli::ParsedArgs& args, const std::string& spec_source,
               spec::Composition& comp, CliReport* report) {
  auto property = ltl::Property::Parse(args.Get("--property"));
  auto env = modular::EnvironmentSpec::Parse(args.Get("--env"));
  if (!property.ok() || !env.ok()) {
    std::fprintf(stderr, "parse error: %s / %s\n",
                 property.status().ToString().c_str(),
                 env.status().ToString().c_str());
    return 2;
  }
  modular::ModularVerifierOptions options;
  if (int rc = OptionsFromFlags(args, spec_source, comp, &options); rc != 0) {
    return rc;
  }
  if (args.Has("--env-domain")) {
    options.env_quantifier_domain = Split(args.Get("--env-domain"), ',');
  }
  for (const std::string& msg : args.All("--env-msg")) {
    size_t eq = msg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "--env-msg expects chan=v1,v2;v3,v4\n");
      return 2;
    }
    auto& rows = options.run.env_message_candidates[msg.substr(0, eq)];
    for (const std::string& row : Split(msg.substr(eq + 1), ';')) {
      if (!row.empty()) rows.push_back(Split(row, ','));
    }
  }
  modular::ModularVerifier verifier(&comp, options);
  auto result = verifier.Verify(*property, *env);
  return FinishVerification(args, comp, "modular", options,
                            std::move(result), verifier.interner(), report);
}

int RunSimulate(const cli::ParsedArgs& args, spec::Composition& comp) {
  auto named = verifier::ParseNamedDatabases(comp, args.All("--db"));
  if (!named.ok()) {
    std::fprintf(stderr, "%s\n", named.status().ToString().c_str());
    return 2;
  }
  Interner interner = comp.BuildInterner();
  data::Domain domain;  // unused: the simulator derives its own domain
  auto dbs = verifier::MaterializeDatabases(comp, *named, interner, domain);
  if (!dbs.ok()) {
    std::fprintf(stderr, "error: %s\n", dbs.status().ToString().c_str());
    return 1;
  }
  runtime::RunOptions run;
  run.queue_bound = args.Number("--queue-bound", 1);
  run.lossy = !args.Has("--perfect");
  runtime::Simulator sim(&comp, std::move(*dbs), &interner, run,
                         args.Number("--seed", 42));
  auto trace = sim.Run(args.Number("--steps", 10));
  if (!trace.ok()) {
    std::fprintf(stderr, "error: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  for (const auto& snap : *trace) {
    std::printf("%s", snap.ToString(comp, interner).c_str());
  }
  return 0;
}

/// First Ctrl-C: request cooperative cancellation — the run winds down and
/// still emits the partial verdict, stats JSON and a final checkpoint.
/// Second Ctrl-C: force-exit immediately (something is stuck).
volatile std::sig_atomic_t g_sigint_seen = 0;

extern "C" void HandleSigint(int) {
  std::sig_atomic_t seen = g_sigint_seen;
  g_sigint_seen = seen + 1;
  if (seen > 0) std::_Exit(130);
  // Async-signal-safe: a relaxed atomic store on an already-constructed
  // object (main touches Global() before installing the handler).
  RunControl::Global().RequestCancel();
}

}  // namespace

int main(int argc, char** argv) {
  const cli::ParsedArgs args = cli::ParseOrExit(cli::WsvcTool(), argc, argv);
  const std::string& spec_file = args.positional[0];

  // Construct the global RunControl before the handler can fire; signal
  // handlers must not run a function-local static's first-time init.
  RunControl::Global();
  std::signal(SIGINT, HandleSigint);

  // Observability setup: counters are always collected; phase timing,
  // tracing and the heartbeat are enabled by their flags. --stats-json and
  // -v imply timing so the per-phase numbers they report are non-zero.
  bool verbose = args.Has("-v") || args.Has("--verbose");
  if (verbose || args.Has("--stats-json")) {
    obs::SetTimingEnabled(true);
    // Worker time ledgers ride along with timing: pool workers register
    // theirs at thread birth, and the main thread's ledger catches the
    // caller-drains share of ParallelChunks fan-outs.
    LedgerRegistry::Global().set_enabled(true);
    LedgerRegistry::Global().RegisterCurrentThread("main");
  }
  if (args.Has("--trace-json")) obs::TraceRecorder::Global().Enable();
  if (args.Has("--progress")) {
    obs::ProgressMeter::Global().Enable(
        static_cast<int64_t>(args.Number("--progress-ms", 1000)));
  }

  Result<std::string> source = [&] {
    obs::PhaseTimer parse_phase("parse");
    return ReadFile(spec_file);
  }();
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto comp = [&] {
    obs::PhaseTimer parse_phase("parse");
    return spec::ParseComposition(*source);
  }();
  if (!comp.ok()) {
    std::fprintf(stderr, "spec: %s\n", comp.status().ToString().c_str());
    return 1;
  }

  CliReport report;
  int rc = 2;
  {
    obs::PhaseTimer total_phase("total");
    if (args.command == "check") {
      rc = RunCheck(*comp);
    } else if (args.command == "print") {
      std::printf("%s", spec::PrintComposition(*comp).c_str());
      rc = 0;
    } else if (args.command == "verify") {
      rc = RunVerify(args, *source, *comp, &report);
    } else if (args.command == "protocol") {
      rc = RunProtocol(args, *source, *comp, &report);
    } else if (args.command == "modular") {
      rc = RunModular(args, *source, *comp, &report);
    } else if (args.command == "simulate") {
      rc = RunSimulate(args, *comp);
    }
  }
  obs::ProgressMeter::Global().FinalBeat();

  if (args.Has("--stats-json")) {
    std::vector<std::pair<std::string, std::string>> extra;
    extra.emplace_back("command", "\"" + obs::JsonEscape(args.command) + "\"");
    extra.emplace_back("spec", "\"" + obs::JsonEscape(spec_file) + "\"");
    extra.emplace_back("peers", std::to_string(comp->peers().size()));
    extra.emplace_back(
        "verdict",
        verifier::RenderVerdictJson(
            rc, report.kind,
            report.result.has_value() ? &*report.result : nullptr,
            report.fingerprint));
    Status written = obs::WriteStatsJson(obs::Registry::Global(), "wsvc",
                                         args.Get("--stats-json"), extra);
    if (!written.ok()) {
      std::fprintf(stderr, "stats-json: %s\n", written.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (args.Has("--trace-json")) {
    Status written =
        obs::TraceRecorder::Global().WriteFile(args.Get("--trace-json"));
    if (!written.ok()) {
      std::fprintf(stderr, "trace-json: %s\n", written.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (verbose) {
    std::fprintf(stderr, "--- observability summary ---\n%s",
                 obs::RenderTextSummary(obs::Registry::Global()).c_str());
  }
  return rc;
}
