// wsvc — the wsverify command-line verifier.
//
// Commands and the full option list live in Usage() below; README.md
// ("Observability") documents the stats/trace output formats.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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
#include "verifier/verifier.h"

namespace {

using namespace wsv;

struct Args {
  std::string command;
  std::string spec_file;
  std::map<std::string, std::string> flags;
  std::vector<std::string> dbs;       // Peer.relation=tuples
  std::vector<std::string> env_msgs;  // chan=tuples
};

/// What the executed command produced, for the stats-JSON verdict section.
struct CliReport {
  const char* kind = nullptr;  // "property" | "protocol" | "modular"
  std::optional<verifier::VerificationResult> result;
  /// Spec/property/options fingerprint — emitted in the verdict JSON so
  /// wsvc-merge can check shard compatibility.
  std::string fingerprint;
};

const std::set<std::string>& BoolFlags() {
  static const std::set<std::string> flags = {
      "--perfect", "--trace",  "--progress",
      "-v",        "--verbose", "--resume",
      "--count-databases"};
  return flags;
}

const std::set<std::string>& ValueFlags() {
  static const std::set<std::string> flags = {
      "--property",  "--ltl",           "--env",        "--observer",
      "--queue-bound", "--fresh",       "--max-states", "--max-databases",
      "--steps",     "--seed",          "--db",         "--env-msg",
      "--env-domain", "--stats-json",   "--trace-json", "--progress-ms",
      "--jobs",      "--deadline-ms",   "--checkpoint", "--checkpoint-every",
      "--on-db-error", "--db-range",    "--valuation-range"};
  return flags;
}

/// The one place that documents the CLI (keep in sync with README.md).
int Usage() {
  std::fprintf(
      stderr,
      "usage: wsvc <command> <spec-file> [options]\n"
      "\n"
      "commands:\n"
      "  check     parse + validate; report channels, closedness,\n"
      "            input-boundedness (Section 3.1)\n"
      "  verify    verify an LTL-FO property (Theorem 3.4); needs --property\n"
      "  protocol  verify a conversation protocol in LTL over channel names\n"
      "            (Theorems 4.2/4.3); needs --ltl\n"
      "  modular   modular verification of an open composition (Theorem 5.4);\n"
      "            needs --property and --env\n"
      "  simulate  print a random run over the pinned database\n"
      "  print     pretty-print the composition in normalized DSL form\n"
      "\n"
      "verification options:\n"
      "  --property <ltl-fo>      property to verify (verify, modular)\n"
      "  --ltl <formula>          protocol formula over channel names\n"
      "                           (protocol)\n"
      "  --env <env-spec>         environment specification (modular)\n"
      "  --observer source        observer-at-source semantics (protocol)\n"
      "  --db P.rel=a,b;c,d       pin a database relation (repeatable)\n"
      "  --env-msg chan=a,b;c,d   environment message candidates (modular)\n"
      "  --env-domain a,b         env quantifier domain (modular)\n"
      "  --queue-bound <k>        k-bounded queues (default 1)\n"
      "  --perfect                perfect channels (Theorem 3.7 regime)\n"
      "  --fresh <n>              fresh pseudo-domain elements (default 1;\n"
      "                           0 = the sufficient bound for a complete\n"
      "                           verdict)\n"
      "  --max-states <n>         state budget: caps each database's\n"
      "                           configuration graph (snapshots) and each\n"
      "                           product search (default 4000000)\n"
      "  --steps <n> / --seed <s> simulation length / RNG seed (simulate)\n"
      "  --trace                  print the counterexample run\n"
      "\n"
      "sweep and range options (verify, protocol, modular):\n"
      "  --max-databases <n>      stop the database sweep before ABSOLUTE\n"
      "                           canonical index n (counted from 0 even when\n"
      "                           resuming or range-sharding)\n"
      "  --db-range <lo:hi>       check only the absolute half-open slice\n"
      "                           [lo, hi) of the canonical database\n"
      "                           enumeration — one shard of a distributed\n"
      "                           sweep (tools/shard_sweep.py, wsvc-merge)\n"
      "  --valuation-range <lo:hi> the same slicing over the valuation space\n"
      "                           of a pinned-database run (--db)\n"
      "  --count-databases        report the size of the enumeration space\n"
      "                           (databases, or valuations under --db) and\n"
      "                           exit without verifying — how a coordinator\n"
      "                           picks shard boundaries\n"
      "  --jobs <n>               global worker budget for the two-level\n"
      "                           scheduler: database sweep + within-database\n"
      "                           graph exploration and valuation fan-out\n"
      "                           (default 1; 0 = hardware concurrency);\n"
      "                           verdict and witness are identical at any n\n"
      "\n"
      "robustness options (verify, protocol, modular):\n"
      "  --deadline-ms <ms>       stop after this much wall time with a\n"
      "                           partial verdict over the completed database\n"
      "                           prefix (0 = no deadline); Ctrl-C stops the\n"
      "                           same way, a second Ctrl-C force-exits\n"
      "  --on-db-error <mode>     skip (default): retry a hard-failing\n"
      "                           database once, then record it as failed\n"
      "                           and keep sweeping; abort: surface the error\n"
      "  --checkpoint <file>      persist sweep progress here (atomic\n"
      "                           temp-file + rename), and once more when the\n"
      "                           run ends\n"
      "  --checkpoint-every <n>   databases between checkpoints (default 64)\n"
      "  --resume                 fast-forward past the prefix recorded in\n"
      "                           --checkpoint's file; the resumed run\n"
      "                           reproduces the uninterrupted verdict and\n"
      "                           witness bit-for-bit\n"
      "\n"
      "observability options:\n"
      "  --stats-json <file>      write all counters, the phase tree and the\n"
      "                           verdict as versioned JSON (schema v%d)\n"
      "  --trace-json <file>      write a Chrome trace-event file (open in\n"
      "                           chrome://tracing or ui.perfetto.dev)\n"
      "  --progress               heartbeat on stderr (dbs / states / rate)\n"
      "  --progress-ms <ms>       heartbeat period (default 1000)\n"
      "  -v, --verbose            print a counter and phase-tree summary on\n"
      "                           stderr\n",
      obs::kStatsSchemaVersion);
  return 2;
}

bool IsKnownCommand(const std::string& command) {
  static const std::set<std::string> commands = {
      "check", "verify", "protocol", "modular", "simulate", "print"};
  return commands.count(command) > 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 3) return false;
  args->command = argv[1];
  args->spec_file = argv[2];
  if (!IsKnownCommand(args->command)) {
    std::fprintf(stderr, "wsvc: unknown command '%s'\n",
                 args->command.c_str());
    return false;
  }
  for (int i = 3; i < argc; ++i) {
    std::string flag = argv[i];
    if (BoolFlags().count(flag) > 0) {
      args->flags[flag] = "1";
      continue;
    }
    if (ValueFlags().count(flag) == 0) {
      std::fprintf(stderr, "wsvc: unknown flag '%s'\n", flag.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "wsvc: flag '%s' requires a value\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--db") {
      args->dbs.push_back(value);
    } else if (flag == "--env-msg") {
      args->env_msgs.push_back(value);
    } else {
      args->flags[flag] = value;
    }
  }
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open spec file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses "Peer.relation=a,b;c,d" into (peer, relation, tuples).
Result<std::tuple<std::string, std::string, std::vector<std::vector<std::string>>>>
ParseDbFlag(const std::string& text) {
  size_t eq = text.find('=');
  size_t dot = text.find('.');
  if (eq == std::string::npos || dot == std::string::npos || dot > eq) {
    return Status::ParseError(
        "--db expects Peer.relation=v1,v2;v3,v4 — got: " + text);
  }
  std::string peer = text.substr(0, dot);
  std::string relation = text.substr(dot + 1, eq - dot - 1);
  std::vector<std::vector<std::string>> tuples;
  for (const std::string& row : Split(text.substr(eq + 1), ';')) {
    if (row.empty()) continue;
    std::vector<std::string> fields = Split(row, ',');
    tuples.push_back(std::move(fields));
  }
  return std::make_tuple(std::move(peer), std::move(relation),
                         std::move(tuples));
}

Result<std::vector<verifier::NamedDatabase>> BuildDatabases(
    const spec::Composition& comp, const std::vector<std::string>& db_flags) {
  std::vector<verifier::NamedDatabase> dbs(comp.peers().size());
  for (const std::string& flag : db_flags) {
    WSV_ASSIGN_OR_RETURN(auto parsed, ParseDbFlag(flag));
    auto& [peer, relation, tuples] = parsed;
    size_t index = comp.PeerIndex(peer);
    if (index == spec::Composition::kNpos) {
      return Status::NotFound("--db references unknown peer '" + peer + "'");
    }
    auto& rel = dbs[index][relation];
    rel.insert(rel.end(), tuples.begin(), tuples.end());
  }
  return dbs;
}

/// Numeric flag parser. strtoull silently wraps negatives ("-1" ->
/// 18446744073709551615) and saturates overflows, so both are rejected
/// explicitly; `max_value` caps flags where an absurd value would only
/// exhaust memory or threads.
size_t FlagOr(const Args& args, const std::string& name, size_t fallback,
              size_t max_value = static_cast<size_t>(-1)) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  const std::string& text = it->second;
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    std::fprintf(stderr,
                 "wsvc: flag '%s' expects a non-negative number, got '%s'\n",
                 name.c_str(), text.c_str());
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    std::fprintf(stderr, "wsvc: flag '%s' expects a number, got '%s'\n",
                 name.c_str(), text.c_str());
    std::exit(2);
  }
  if (errno == ERANGE || value > max_value) {
    std::fprintf(stderr,
                 "wsvc: flag '%s' value '%s' is out of range (max %llu)\n",
                 name.c_str(), text.c_str(),
                 static_cast<unsigned long long>(max_value));
    std::exit(2);
  }
  return static_cast<size_t>(value);
}

/// Sanity caps: values beyond these cannot be useful, only harmful.
constexpr size_t kMaxJobs = 4096;
constexpr size_t kMaxQueueBound = 1 << 20;
constexpr size_t kMaxFresh = 1 << 20;

size_t ParseIndexOrDie(const std::string& flag, const std::string& text) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    std::fprintf(stderr,
                 "wsvc: flag '%s' expects non-negative indices, got '%s'\n",
                 flag.c_str(), text.c_str());
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "wsvc: flag '%s' expects an index, got '%s'\n",
                 flag.c_str(), text.c_str());
    std::exit(2);
  }
  return static_cast<size_t>(value);
}

/// Parses a "lo:hi" range flag (absolute half-open [lo, hi)) into *lo/*hi;
/// leaves them untouched when the flag is absent.
void RangeFlagOr(const Args& args, const std::string& name, size_t* lo,
                 size_t* hi) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return;
  const std::string& text = it->second;
  size_t colon = text.find(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "wsvc: flag '%s' expects lo:hi, got '%s'\n",
                 name.c_str(), text.c_str());
    std::exit(2);
  }
  *lo = ParseIndexOrDie(name, text.substr(0, colon));
  *hi = ParseIndexOrDie(name, text.substr(colon + 1));
  if (*hi < *lo) {
    std::fprintf(stderr, "wsvc: flag '%s' range is empty the wrong way "
                 "(%zu:%zu)\n", name.c_str(), *lo, *hi);
    std::exit(2);
  }
}

/// Fills the options verify, protocol and modular share from the flags:
/// semantics, domain, budgets, ranges, pinned databases and
/// the robustness options (deadline/cancel token, fault isolation,
/// checkpoint/resume). The fingerprint covers everything that determines
/// the enumeration order and the verdict (command, spec source,
/// property/protocol/env, domain- and semantics-shaping flags) — but NOT
/// --jobs, --max-databases, --db-range or budgets: resuming or sharding with
/// different resource limits is exactly the point. It is always computed
/// (the verdict JSON carries it so wsvc-merge can refuse cross-problem
/// merges), checkpoint or not. Returns 0, or the exit code on a
/// flag/checkpoint error.
int OptionsFromFlags(const Args& args, const std::string& spec_source,
                     const spec::Composition& comp,
                     verifier::VerifierOptions* out) {
  out->run.queue_bound = FlagOr(args, "--queue-bound", 1, kMaxQueueBound);
  out->run.lossy = args.flags.count("--perfect") == 0;
  out->fresh_domain_size = FlagOr(args, "--fresh", 1, kMaxFresh);
  out->budget.max_states = FlagOr(args, "--max-states", 4000000);
  out->max_databases =
      FlagOr(args, "--max-databases", static_cast<size_t>(-1));
  out->jobs = FlagOr(args, "--jobs", 1, kMaxJobs);
  RangeFlagOr(args, "--db-range", &out->db_range_lo, &out->db_range_hi);
  RangeFlagOr(args, "--valuation-range", &out->valuation_range_lo,
              &out->valuation_range_hi);
  out->count_only = args.flags.count("--count-databases") > 0;
  if (!args.dbs.empty()) {
    auto dbs = BuildDatabases(comp, args.dbs);
    if (!dbs.ok()) {
      std::fprintf(stderr, "%s\n", dbs.status().ToString().c_str());
      return 2;
    }
    out->fixed_databases = std::move(*dbs);
  }

  out->control = &RunControl::Global();
  uint64_t deadline_ms = FlagOr(args, "--deadline-ms", 0);
  if (deadline_ms > 0) out->control->ArmDeadlineMs(deadline_ms);
  // The CLI skips hard-failing databases by default; the library aborts.
  out->on_db_error = verifier::OnDbError::kSkip;
  auto mode = args.flags.find("--on-db-error");
  if (mode != args.flags.end() && mode->second != "skip") {
    if (mode->second != "abort") {
      std::fprintf(stderr,
                   "wsvc: --on-db-error expects 'abort' or 'skip', got '%s'\n",
                   mode->second.c_str());
      return 2;
    }
    out->on_db_error = verifier::OnDbError::kAbort;
  }
  auto flag = [&args](const char* name) {
    auto it = args.flags.find(name);
    return it == args.flags.end() ? std::string() : it->second;
  };
  std::string dbs_joined;
  for (const std::string& db : args.dbs) dbs_joined += db + "\n";
  std::string env_msgs_joined;
  for (const std::string& msg : args.env_msgs) env_msgs_joined += msg + "\n";
  out->checkpoint_fingerprint = verifier::FingerprintParts(
      {args.command, spec_source, flag("--property"), flag("--ltl"),
       flag("--env"), flag("--observer"), flag("--queue-bound"),
       args.flags.count("--perfect") > 0 ? "perfect" : "lossy",
       flag("--fresh"), flag("--env-domain"), dbs_joined, env_msgs_joined});
  auto cp = args.flags.find("--checkpoint");
  if (cp == args.flags.end()) {
    if (args.flags.count("--resume") > 0) {
      std::fprintf(stderr, "wsvc: --resume requires --checkpoint <file>\n");
      return 2;
    }
    return 0;
  }
  out->checkpoint_path = cp->second;
  out->checkpoint_every = FlagOr(args, "--checkpoint-every", 64);
  if (args.flags.count("--resume") > 0) {
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

/// Maps a verdict to the process exit code: 0 holds, 3 violated (sound even
/// when the run was cut short), 130 canceled before any conclusion.
int VerdictExitCode(const verifier::VerificationResult& r) {
  if (!r.holds) return 3;
  if (r.coverage.stop_reason == StopReason::kCanceled) return 130;
  return 0;
}

int RunCheck(const Args& args, spec::Composition& comp) {
  (void)args;
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
int FinishVerification(const Args& args, const spec::Composition& comp,
                       const char* kind,
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
    if (args.flags.count("--trace") > 0 &&
        result->counterexample.has_value()) {
      std::printf("%s",
                  result->counterexample->ToString(comp, interner).c_str());
    }
    rc = VerdictExitCode(*result);
  }
  report->result = std::move(*result);
  return rc;
}

int RunVerify(const Args& args, const std::string& spec_source,
              spec::Composition& comp, CliReport* report) {
  auto it = args.flags.find("--property");
  if (it == args.flags.end()) {
    std::fprintf(stderr, "verify requires --property\n");
    return 2;
  }
  auto property = ltl::Property::Parse(it->second);
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

int RunProtocol(const Args& args, const std::string& spec_source,
                spec::Composition& comp, CliReport* report) {
  auto it = args.flags.find("--ltl");
  if (it == args.flags.end()) {
    std::fprintf(stderr, "protocol requires --ltl\n");
    return 2;
  }
  auto observer = protocol::ObserverSemantics::kAtRecipient;
  auto obs_flag = args.flags.find("--observer");
  if (obs_flag != args.flags.end() && obs_flag->second == "source") {
    observer = protocol::ObserverSemantics::kAtSource;
  }
  auto proto = protocol::DataAgnosticProtocolFromLtl(comp, it->second,
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

int RunModular(const Args& args, const std::string& spec_source,
               spec::Composition& comp, CliReport* report) {
  auto pit = args.flags.find("--property");
  auto eit = args.flags.find("--env");
  if (pit == args.flags.end() || eit == args.flags.end()) {
    std::fprintf(stderr, "modular requires --property and --env\n");
    return 2;
  }
  auto property = ltl::Property::Parse(pit->second);
  auto env = modular::EnvironmentSpec::Parse(eit->second);
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
  auto dom = args.flags.find("--env-domain");
  if (dom != args.flags.end()) {
    options.env_quantifier_domain = Split(dom->second, ',');
  }
  for (const std::string& msg : args.env_msgs) {
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

int RunSimulate(const Args& args, spec::Composition& comp) {
  Interner interner = comp.BuildInterner();
  std::vector<data::Instance> dbs;
  for (const auto& peer : comp.peers()) {
    dbs.emplace_back(&peer.database_schema());
  }
  for (const std::string& flag : args.dbs) {
    auto parsed = ParseDbFlag(flag);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    auto& [peer, relation, tuples] = *parsed;
    size_t index = comp.PeerIndex(peer);
    if (index == spec::Composition::kNpos) {
      std::fprintf(stderr, "unknown peer '%s'\n", peer.c_str());
      return 2;
    }
    for (const auto& row : tuples) {
      std::vector<data::Value> values;
      for (const std::string& v : row) values.push_back(interner.Intern(v));
      dbs[index].relation(relation).Insert(data::Tuple(std::move(values)));
    }
  }
  runtime::RunOptions run;
  run.queue_bound = FlagOr(args, "--queue-bound", 1);
  runtime::Simulator sim(&comp, dbs, &interner, run,
                         FlagOr(args, "--seed", 42));
  auto trace = sim.Run(FlagOr(args, "--steps", 10));
  if (!trace.ok()) {
    std::fprintf(stderr, "error: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  for (const auto& snap : *trace) {
    std::printf("%s", snap.ToString(comp, interner).c_str());
  }
  return 0;
}

/// Renders the "verdict" stats-JSON section from the command's result.
std::string RenderVerdictJson(const CliReport& report, int exit_code) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("exit_code").Int(exit_code);
  if (report.kind != nullptr && report.result.has_value()) {
    const verifier::VerificationResult& r = *report.result;
    w.Key("kind").String(report.kind);
    if (!report.fingerprint.empty()) {
      w.Key("fingerprint").String(report.fingerprint);
    }
    w.Key("holds").Bool(r.holds);
    w.Key("complete").Bool(r.complete);
    w.Key("enumeration_count").Uint(r.enumeration_count);
    w.Key("counterexample").Bool(r.counterexample.has_value());
    if (r.counterexample.has_value()) {
      w.Key("witness_db_index").Uint(r.counterexample->database_index);
      w.Key("witness_valuation_index").Uint(r.counterexample->valuation_index);
    }
    w.Key("regime").BeginObject();
    w.Key("ok").Bool(r.regime.ok());
    w.Key("code").String(StatusCodeName(r.regime.code()));
    w.Key("message").String(r.regime.message());
    w.EndObject();
    w.Key("budget_exceeded")
        .Bool(r.regime.code() == StatusCode::kBudgetExceeded ||
              r.stats.search.budget_hits > 0);
    w.Key("coverage").BeginObject();
    w.Key("stop_reason").String(StopReasonName(r.coverage.stop_reason));
    w.Key("stop_code").String(StatusCodeName(r.coverage.stop_status.code()));
    w.Key("stop_message").String(r.coverage.stop_status.message());
    w.Key("completed_prefix").Uint(r.coverage.completed_prefix);
    w.Key("covered").BeginArray();
    for (const verifier::IndexInterval& iv : r.coverage.covered) {
      w.BeginArray().Uint(iv.first).Uint(iv.second).EndArray();
    }
    w.EndArray();
    w.Key("unit").String(r.coverage.unit);
    w.Key("range_lo").Uint(r.coverage.range_lo);
    w.Key("range_hi").Uint(r.coverage.range_hi);
    w.Key("databases_completed").Uint(r.stats.databases_checked);
    w.Key("failed_db_indices").BeginArray();
    for (size_t index : r.coverage.failed_db_indices) w.Uint(index);
    w.EndArray();
    w.Key("db_retries").Uint(r.coverage.db_retries);
    w.EndObject();
    w.Key("stats").BeginObject();
    w.Key("jobs").Uint(r.stats.jobs);
    w.Key("databases_checked").Uint(r.stats.databases_checked);
    w.Key("instances").Uint(r.stats.instances);
    w.Key("searches").Uint(r.stats.searches);
    w.Key("prefiltered").Uint(r.stats.prefiltered);
    w.Key("prefilter_memo_hits").Uint(r.stats.prefilter_memo_hits);
    w.Key("prefilter_memo_misses").Uint(r.stats.prefilter_memo_misses);
    w.Key("snapshots").Uint(r.stats.search.snapshots);
    w.Key("graph_transitions").Uint(r.stats.search.graph_transitions);
    w.Key("product_states").Uint(r.stats.search.product_states);
    w.Key("product_transitions").Uint(r.stats.search.transitions);
    w.Key("leaf_cache_hits").Uint(r.stats.search.leaf_cache_hits);
    w.Key("leaf_cache_misses").Uint(r.stats.search.leaf_cache_misses);
    w.Key("leaf_evals").Uint(r.stats.search.leaf_evals);
    w.Key("footprint_hits").Uint(r.stats.search.footprint_hits);
    w.Key("leaves").Uint(r.stats.search.leaves);
    w.Key("inner_searches").Uint(r.stats.search.inner_searches);
    w.Key("budget_hits").Uint(r.stats.search.budget_hits);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
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
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  // Construct the global RunControl before the handler can fire; signal
  // handlers must not run a function-local static's first-time init.
  RunControl::Global();
  std::signal(SIGINT, HandleSigint);

  // Observability setup: counters are always collected; phase timing,
  // tracing and the heartbeat are enabled by their flags. --stats-json and
  // -v imply timing so the per-phase numbers they report are non-zero.
  bool verbose =
      args.flags.count("-v") > 0 || args.flags.count("--verbose") > 0;
  auto stats_path = args.flags.find("--stats-json");
  auto trace_path = args.flags.find("--trace-json");
  if (verbose || stats_path != args.flags.end()) {
    obs::SetTimingEnabled(true);
    // Worker time ledgers ride along with timing: pool workers register
    // theirs at thread birth, and the main thread's ledger catches the
    // caller-drains share of ParallelChunks fan-outs.
    LedgerRegistry::Global().set_enabled(true);
    LedgerRegistry::Global().RegisterCurrentThread("main");
  }
  if (trace_path != args.flags.end()) {
    obs::TraceRecorder::Global().Enable();
  }
  if (args.flags.count("--progress") > 0) {
    obs::ProgressMeter::Global().Enable(
        static_cast<int64_t>(FlagOr(args, "--progress-ms", 1000)));
  }

  Result<std::string> source = [&] {
    obs::PhaseTimer parse_phase("parse");
    return ReadFile(args.spec_file);
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
      rc = RunCheck(args, *comp);
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

  if (stats_path != args.flags.end()) {
    std::vector<std::pair<std::string, std::string>> extra;
    extra.emplace_back("command", "\"" + obs::JsonEscape(args.command) + "\"");
    extra.emplace_back("spec", "\"" + obs::JsonEscape(args.spec_file) + "\"");
    extra.emplace_back("peers", std::to_string(comp->peers().size()));
    extra.emplace_back("verdict", RenderVerdictJson(report, rc));
    Status written = obs::WriteStatsJson(obs::Registry::Global(), "wsvc",
                                         stats_path->second, extra);
    if (!written.ok()) {
      std::fprintf(stderr, "stats-json: %s\n", written.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (trace_path != args.flags.end()) {
    Status written =
        obs::TraceRecorder::Global().WriteFile(trace_path->second);
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
