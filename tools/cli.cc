#include "cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "obs/stats_json.h"

namespace wsv::cli {
namespace {

using enum Arg;

bool Accepts(const Flag& flag, const std::string& command) {
  return std::count(flag.commands.begin(), flag.commands.end(), command) > 0;
}

const Command* FindCommand(const Tool& tool, const std::string& name) {
  auto it = std::find_if(tool.commands.begin(), tool.commands.end(),
                         [&](const Command& c) { return c.name == name; });
  return it == tool.commands.end() ? nullptr : &*it;
}

/// Why `value` does not fit `flag`, or "".
std::string CheckValue(const Flag& flag, const std::string& value) {
  if (!flag.choices.empty() && std::count(flag.choices.begin(),
                                          flag.choices.end(), value) == 0) {
    return "expects '" + Join(flag.choices, "' or '") + "', got '" + value +
           "'";
  }
  if (flag.arg == kNumber) {
    return ReadNumber(value, flag.max).status().message();
  }
  if (flag.arg == kRange) return ReadRange(value).status().message();
  return "";
}

}  // namespace

std::string ParsedArgs::Get(const std::string& flag) const {
  return Has(flag) ? values.at(flag).back() : "";
}

std::vector<std::string> ParsedArgs::All(const std::string& flag) const {
  return Has(flag) ? values.at(flag) : std::vector<std::string>();
}

uint64_t ParsedArgs::Number(const std::string& flag, uint64_t fallback) const {
  return Has(flag) ? ReadNumber(Get(flag), UINT64_MAX).value() : fallback;
}

std::optional<std::pair<uint64_t, uint64_t>> ParsedArgs::Range(
    const std::string& flag) const {
  if (!Has(flag)) return std::nullopt;
  return ReadRange(Get(flag)).value();
}

Result<uint64_t> ReadNumber(const std::string& text, uint64_t max) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return Status::ParseError("expects a non-negative number, got '" + text +
                              "'");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') {
    return Status::ParseError("expects a number, got '" + text + "'");
  }
  if (errno == ERANGE || value > max) {
    return Status::ParseError("value '" + text + "' is out of range (max " +
                              std::to_string(max) + ")");
  }
  return static_cast<uint64_t>(value);
}

Result<std::pair<uint64_t, uint64_t>> ReadRange(const std::string& text) {
  size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return Status::ParseError("expects lo:hi, got '" + text + "'");
  }
  WSV_ASSIGN_OR_RETURN(uint64_t lo,
                       ReadNumber(text.substr(0, colon), UINT64_MAX));
  WSV_ASSIGN_OR_RETURN(uint64_t hi,
                       ReadNumber(text.substr(colon + 1), UINT64_MAX));
  if (hi < lo) {
    return Status::ParseError("range is empty the wrong way (" + text + ")");
  }
  return std::make_pair(lo, hi);
}

Result<ParsedArgs> ParseCommandLine(const Tool& tool, int argc,
                                    const char* const* argv) {
  ParsedArgs out;
  int i = 1;
  const Command* command = FindCommand(tool, "");
  if (command == nullptr) {
    if (argc < 2) return Status::ParseError(tool.program + ": no command");
    out.command = argv[i++];
    command = FindCommand(tool, out.command);
    if (command == nullptr) {
      return Status::ParseError(tool.program + ": unknown command '" +
                                out.command + "'");
    }
  }
  const std::string where =
      tool.program + (out.command.empty() ? "" : " " + out.command) + ": ";
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      out.positional.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(0, arg.find('='));
    auto flag = std::find_if(tool.flags.begin(), tool.flags.end(),
                             [&](const Flag& f) { return f.name == name; });
    if (flag == tool.flags.end()) {
      return Status::ParseError(where + "unknown flag '" + arg + "'");
    }
    const std::string error = where + "flag '" + name + "' ";
    if (!Accepts(*flag, out.command)) {
      return Status::ParseError(error + "does not apply to '" + out.command +
                                "' (only to " + Join(flag->commands, ", ") +
                                ")");
    }
    if (name != arg) {
      return Status::ParseError(error + (flag->arg == kNone
                                             ? "takes no value"
                                             : "takes its value as the "
                                               "next argument"));
    }
    if (out.Has(name) && flag->arg != kRepeated) {
      return Status::ParseError(error + "is given more than once");
    }
    std::string value;
    if (flag->arg != kNone) {
      if (i + 1 >= argc) return Status::ParseError(error + "requires a value");
      value = argv[++i];
      if (std::string bad = CheckValue(*flag, value); !bad.empty()) {
        return Status::ParseError(error + bad);
      }
    }
    out.values[name].push_back(std::move(value));
  }
  if (out.positional.size() < command->min_operands ||
      out.positional.size() > command->max_operands) {
    return Status::ParseError(where + "expects " + command->operands +
                              ", got " + std::to_string(out.positional.size()) +
                              " argument(s)");
  }
  for (const std::string& flag : command->required) {
    if (!out.Has(flag)) {
      return Status::ParseError(where + "flag '" + flag + "' is required");
    }
  }
  return out;
}

ParsedArgs ParseOrExit(const Tool& tool, int argc, const char* const* argv) {
  Result<ParsedArgs> args = ParseCommandLine(tool, argc, argv);
  if (args.ok()) return std::move(args).value();
  std::fprintf(stderr, "%s\n\n%s", args.status().message().c_str(),
               Usage(tool, argc > 1 ? argv[1] : "").c_str());
  std::exit(2);
}

std::string Usage(const Tool& tool, const std::string& command) {
  const Command* one = tool.commands.size() == 1
                           ? &tool.commands[0]
                           : FindCommand(tool, command);
  std::string out;
  for (const Command& c : tool.commands) {
    if (one != nullptr && &c != one) continue;
    out += "usage: " + tool.program + (c.name.empty() ? "" : " " + c.name);
    for (const std::string& flag : c.required) out += " " + flag + " ...";
    out += " [options] " + c.operands + "\n    " + c.help + "\n";
  }
  out += "\noptions:\n";
  constexpr size_t kColumn = 27;  // where flag help starts
  for (const Flag& flag : tool.flags) {
    if (one != nullptr && !Accepts(flag, one->name)) continue;
    std::string head = "  " + flag.name + " " +
                       (flag.choices.empty() ? flag.placeholder
                                             : Join(flag.choices, "|"));
    if (head.size() >= kColumn) {
      out += head + "\n";
      head.clear();
    }
    std::string help = flag.help;
    if (one == nullptr) help += "\n[" + Join(flag.commands, ", ") + "]";
    for (const std::string& line : Split(help, '\n')) {
      out += head + std::string(kColumn - head.size(), ' ') + line + "\n";
      head.clear();
    }
  }
  return out;
}

const Tool& WsvcTool() {
  static const std::vector<std::string> kAll = {
      "check", "verify", "protocol", "modular", "simulate", "print"};
  static const std::vector<std::string> kVerify = {"verify", "protocol",
                                                   "modular"};
  static const std::vector<std::string> kRun = {"verify", "protocol",
                                                "modular", "simulate"};
  static const Tool tool = {"wsvc", {
    {"check", "<spec-file>", 1, 1,
     "parse + validate; report channels, closedness and input-boundedness"},
    {"verify", "<spec-file>", 1, 1,
     "verify an LTL-FO property (Theorem 3.4)", {"--property"}},
    {"protocol", "<spec-file>", 1, 1,
     "verify an LTL protocol over channel names (Theorems 4.2/4.3)",
     {"--ltl"}},
    {"modular", "<spec-file>", 1, 1,
     "verify an open composition modularly (Theorem 5.4)",
     {"--property", "--env"}},
    {"simulate", "<spec-file>", 1, 1,
     "print a random run over the pinned database"},
    {"print", "<spec-file>", 1, 1,
     "pretty-print the composition in normalized DSL form"},
  }, {
    {"--property", kText, "<ltl-fo>", {"verify", "modular"}, "LTL-FO property"},
    {"--ltl", kText, "<formula>", {"protocol"}, "LTL over channel names"},
    {"--env", kText, "<env-spec>", {"modular"}, "environment specification"},
    {"--observer", kText, "", {"protocol"}, "observe at the source (Theorem "
     "4.3), not at\nthe recipient (Theorem 4.2)", {"source"}},
    {"--db", kRepeated, "P.rel=a,b;c,d", kRun, "pin a database relation"},
    {"--env-msg", kRepeated, "chan=a,b;c,d", {"modular"},
     "environment message candidates"},
    {"--env-domain", kText, "a,b", {"modular"}, "env quantifier domain"},
    {"--queue-bound", kNumber, "<k>", kRun, "k-bounded queues (default 1)",
     {}, 1 << 20},
    {"--perfect", kNone, "", kRun, "perfect channels (Theorem 3.7 regime)"},
    {"--fresh", kNumber, "<n>", kVerify, "fresh elements (default 1; 0 = "
     "the bound\nthat makes the verdict complete)", {}, 1 << 20},
    {"--max-states", kNumber, "<n>", kVerify, "cap on each snapshot graph "
     "and product\nsearch (default 4000000)"},
    {"--steps", kNumber, "<n>", {"simulate"}, "run length (default 10)"},
    {"--seed", kNumber, "<s>", {"simulate"}, "RNG seed (default 42)"},
    {"--trace", kNone, "", kVerify, "print the counterexample run"},
    {"--max-databases", kNumber, "<n>", kVerify,
     "stop before canonical database index n"},
    {"--db-range", kRange, "<lo:hi>", kVerify,
     "check databases [lo, hi) only (one shard)"},
    {"--valuation-range", kRange, "<lo:hi>", kVerify,
     "check valuations [lo, hi) of a --db run only"},
    {"--count-databases", kNone, "", kVerify,
     "print the enumeration space's size and exit"},
    {"--jobs", kNumber, "<n>", kVerify, "workers (default 1; 0 = all "
     "cores); the\nverdict is the same at any n", {}, 4096},
    {"--deadline-ms", kNumber, "<ms>", kVerify, "stop after this long with "
     "a partial verdict\n(0 = never); so does Ctrl-C"},
    {"--on-db-error", kText, "", kVerify, "on a database that fails twice: "
     "skip it\n(default) or abort the run", {"abort", "skip"}},
    {"--checkpoint", kText, "<file>", kVerify, "persist sweep progress here"},
    {"--checkpoint-every", kNumber, "<n>", kVerify,
     "databases between checkpoints (default 64)"},
    {"--resume", kNone, "", kVerify, "continue past --checkpoint's prefix"},
    {"--stats-json", kText, "<file>", kAll, "write counters, phase tree and "
     "verdict\n(schema v" + std::to_string(obs::kStatsSchemaVersion) + ")"},
    {"--trace-json", kText, "<file>", kAll, "write a Chrome trace-event file"},
    {"--progress", kNone, "", kAll, "heartbeat on stderr"},
    {"--progress-ms", kNumber, "<ms>", kAll, "heartbeat period (default 1000)"},
    {"-v", kNone, "", kAll, "same as --verbose"},
    {"--verbose", kNone, "", kAll, "print counters and phase tree on stderr"},
  }};
  return tool;
}

const Tool& FuzzTool() {
  static const std::vector<std::string> kBoth = {"run", "generate"};
  static const Tool tool = {"wsvc-fuzz", {
    {"run", "", 0, 0,
     "seeded differential sweep; exits 1 on a mismatch (repro written)"},
    {"replay", "FILE...", 1, SIZE_MAX, "re-run corpus repro files"},
    {"generate", "", 0, 0, "print one generated scenario (debugging)"},
  }, {
    {"--seed", kNumber, "N", kBoth, "base seed (default 1)"},
    {"--count", kNumber, "N", {"run"}, "compositions to run (default 200)"},
    {"--regimes", kText, "a,b,c", {"run"}, "regime rotation (default: all)"},
    {"--regime", kText, "", {"generate"}, "the scenario's regime (default "
     "core)", {"core", "perfect", "recency", "detflat", "external", "cfsm"}},
    {"--jobs", kNumber, "N", kBoth, "threads of the parallel legs (default 2)",
     {}, 4096},
    {"--shards", kNumber, "N", kBoth, "shards of the sharded leg (default 2)"},
    {"--corpus", kText, "DIR", {"run"}, "repro directory (tests/corpus)"},
    {"--break-leg", kText, "LEG", kBoth, "test hook: flip LEG's verdict "
     "(also read\nfrom WSV_FUZZ_BREAK)"},
    {"--max-states", kNumber, "N", kBoth, "per-search state cap override"},
    {"--quiet", kNone, "", {"replay"}, "print failures only"},
  }};
  return tool;
}

const Tool& MergeTool() {
  static const Tool tool = {"wsvc-merge", {
    {"", "[STATS1 CKPT1 [STATS2 CKPT2 ...]]", 0, SIZE_MAX, "STATSi is a "
     "shard's --stats-json document, CKPTi its\n    --checkpoint file or "
     "'-' if it had none"},
  }, {
    {"--stats-json", kText, "FILE", {""}, "write the merged stats document"},
    {"--incremental", kText, "STATE", {""}, "fold the pairs into the state "
     "file STATE;\nno verdict"},
    {"--finalize", kNone, "", {""}, "with --incremental: the state's verdict"},
  }};
  return tool;
}

}  // namespace wsv::cli
