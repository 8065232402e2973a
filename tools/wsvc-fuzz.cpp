// wsvc-fuzz — differential fuzzing across the decidability map.
//
// Generates seeded random compositions per regime (src/gen), runs every
// applicable verifier pair on each (engine vs CFSM explorer vs modular
// translation; serial vs --jobs; whole vs sharded + merged) and fails
// loudly on any verdict/witness/coverage mismatch. Mismatches are shrunk and
// committed as self-contained repros under tests/corpus/. See README.md
// "Differential fuzzing".

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "gen/differ.h"
#include "gen/generator.h"
#include "gen/rng.h"

namespace {

using namespace wsv;

int Usage(FILE* out) {
  std::fprintf(out, R"(usage:
  wsvc-fuzz run [options]        seeded differential sweep
  wsvc-fuzz replay FILE...       re-run corpus repro files
  wsvc-fuzz generate [options]   print one generated scenario (debugging)

run options:
  --seed N          base seed (default 1); composition i uses a derived seed
  --count N         compositions to generate (default 200)
  --regimes a,b,c   regime rotation (default: all of core,perfect,recency,
                    detflat,external,cfsm)
  --jobs N          thread count of the parallel legs (default 2)
  --shards N        shard count of the sharded+merged leg (default 2)
  --corpus DIR      where shrunk repros are written (default tests/corpus)
  --break-leg LEG   test hook: flip LEG's verdict (e.g. engine-jobs2) to
                    prove the mismatch->shrink->repro pipeline end to end;
                    also read from the WSV_FUZZ_BREAK environment variable
  --max-states N    per-search state cap override
  --quiet           summary only

generate options: --seed N --regime NAME [--max-states N]

exit codes: 0 all legs agreed, 1 mismatch (repro written), 2 usage error
)");
  return out == stdout ? 0 : 2;
}

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  bool quiet = false;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) return Status::ParseError("missing command");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quiet") {
      args.quiet = true;
    } else if (StartsWith(arg, "--")) {
      if (i + 1 >= argc) return Status::ParseError("flag needs value: " + arg);
      args.flags[arg] = argv[++i];
    } else {
      args.positional.push_back(std::move(arg));
    }
  }
  return args;
}

uint64_t FlagOr(const Args& args, const std::string& name, uint64_t fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0' ||
      it->second[0] == '-') {
    std::fprintf(stderr, "wsvc-fuzz: flag %s expects a number, got '%s'\n",
                 name.c_str(), it->second.c_str());
    std::exit(2);
  }
  return value;
}

Result<std::vector<gen::Regime>> ParseRegimes(const Args& args) {
  auto it = args.flags.find("--regimes");
  if (it == args.flags.end()) return gen::AllRegimes();
  std::vector<gen::Regime> regimes;
  for (const std::string& name : Split(it->second, ',')) {
    if (name.empty()) continue;
    auto regime = gen::RegimeFromName(name);
    if (!regime.has_value()) {
      return Status::ParseError("unknown regime: " + name);
    }
    regimes.push_back(*regime);
  }
  if (regimes.empty()) return Status::ParseError("--regimes lists no regime");
  return regimes;
}

gen::DiffOptions DiffFromArgs(const Args& args) {
  gen::DiffOptions diff;
  diff.jobs = FlagOr(args, "--jobs", 2);
  diff.shards = FlagOr(args, "--shards", 2);
  auto it = args.flags.find("--break-leg");
  if (it != args.flags.end()) {
    diff.break_leg = it->second;
  } else if (const char* env = std::getenv("WSV_FUZZ_BREAK")) {
    diff.break_leg = env;
  }
  return diff;
}

int RunCommand(const Args& args) {
  const uint64_t base_seed = FlagOr(args, "--seed", 1);
  const uint64_t count = FlagOr(args, "--count", 200);
  const uint64_t max_states = FlagOr(args, "--max-states", 0);
  auto regimes_result = ParseRegimes(args);
  if (!regimes_result.ok()) {
    std::fprintf(stderr, "wsvc-fuzz: %s\n",
                 regimes_result.status().ToString().c_str());
    return 2;
  }
  const std::vector<gen::Regime>& regimes = regimes_result.value();
  const gen::DiffOptions diff = DiffFromArgs(args);
  std::string corpus_dir = "tests/corpus";
  if (auto it = args.flags.find("--corpus"); it != args.flags.end()) {
    corpus_dir = it->second;
  }

  std::map<std::string, uint64_t> per_regime;
  uint64_t mismatches = 0, generator_errors = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < count; ++i) {
    gen::GenOptions options;
    options.seed = gen::Rng::DeriveSeed(base_seed, i);
    options.regime = regimes[i % regimes.size()];
    Result<gen::Scenario> scenario = gen::GenerateScenario(options);
    if (!scenario.ok()) {
      ++generator_errors;
      std::fprintf(stderr, "wsvc-fuzz: generator error (seed=%llu, %s): %s\n",
                   static_cast<unsigned long long>(options.seed),
                   gen::RegimeName(options.regime),
                   scenario.status().ToString().c_str());
      continue;
    }
    if (max_states > 0) scenario.value().max_states = max_states;
    ++per_regime[gen::RegimeName(options.regime)];
    Result<gen::ScenarioVerdict> outcome =
        gen::RunDifferential(scenario.value(), diff);
    if (!outcome.ok()) {
      ++generator_errors;
      std::fprintf(stderr, "wsvc-fuzz: harness error on %s: %s\n",
                   scenario.value().name.c_str(),
                   outcome.status().ToString().c_str());
      continue;
    }
    if (outcome.value().ok) continue;

    ++mismatches;
    std::fprintf(stderr, "wsvc-fuzz: MISMATCH %s: %s\n",
                 scenario.value().name.c_str(),
                 outcome.value().detail.c_str());
    Result<gen::ShrinkResult> shrunk = gen::Shrink(scenario.value(), diff);
    const gen::Scenario& repro =
        shrunk.ok() ? shrunk.value().scenario : scenario.value();
    const gen::ScenarioVerdict& repro_verdict =
        shrunk.ok() ? shrunk.value().verdict : outcome.value();
    std::error_code ec;
    std::filesystem::create_directories(corpus_dir, ec);
    std::string path = corpus_dir + "/repro_" +
                       gen::RegimeName(options.regime) + "_" +
                       std::to_string(options.seed) + ".wsv";
    std::ofstream out(path);
    out << gen::RenderCorpusFile(repro, diff, repro_verdict);
    out.close();
    std::fprintf(stderr,
                 "wsvc-fuzz: minimized repro (%s, %zu shrink attempts) -> "
                 "%s\n",
                 repro.options.dials.ToString().c_str(),
                 shrunk.ok() ? shrunk.value().attempts : 0, path.c_str());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::ostringstream regime_list;
  for (const auto& [name, n] : per_regime) {
    regime_list << " " << name << "=" << n;
  }
  std::printf(
      "wsvc-fuzz: %llu compositions%s, mismatches: %llu, generator errors: "
      "%llu, %.1fs (%.1f comps/s)\n",
      static_cast<unsigned long long>(count), regime_list.str().c_str(),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(generator_errors), seconds,
      seconds > 0 ? static_cast<double>(count) / seconds : 0.0);
  return mismatches == 0 && generator_errors == 0 ? 0 : 1;
}

int ReplayCommand(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "wsvc-fuzz: replay needs at least one file\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& path : args.positional) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "FAIL %s: cannot open\n", path.c_str());
      ++failures;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<gen::CorpusCase> corpus = gen::ParseCorpusFile(buffer.str());
    if (!corpus.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   corpus.status().ToString().c_str());
      ++failures;
      continue;
    }
    // The recorded break-leg is never replayed: a committed repro must
    // either reproduce a real disagreement or pass as a regression test.
    gen::DiffOptions diff = corpus.value().diff;
    diff.break_leg.clear();
    Result<gen::ScenarioVerdict> outcome =
        gen::RunDifferential(corpus.value().scenario, diff);
    if (!outcome.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   outcome.status().ToString().c_str());
      ++failures;
    } else if (!outcome.value().ok) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   outcome.value().detail.c_str());
      ++failures;
    } else if (!args.quiet) {
      std::printf("PASS %s (%zu legs%s)\n", path.c_str(),
                  outcome.value().legs.size(),
                  corpus.value().regenerated ? ", regenerated" : "");
    }
  }
  return failures == 0 ? 0 : 1;
}

int GenerateCommand(const Args& args) {
  gen::GenOptions options;
  options.seed = FlagOr(args, "--seed", 1);
  auto it = args.flags.find("--regime");
  if (it != args.flags.end()) {
    auto regime = gen::RegimeFromName(it->second);
    if (!regime.has_value()) {
      std::fprintf(stderr, "wsvc-fuzz: unknown regime: %s\n",
                   it->second.c_str());
      return 2;
    }
    options.regime = *regime;
  }
  Result<gen::Scenario> scenario = gen::GenerateScenario(options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "wsvc-fuzz: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const uint64_t max_states = FlagOr(args, "--max-states", 0);
  if (max_states > 0) scenario.value().max_states = max_states;
  std::fputs(
      gen::RenderCorpusFile(scenario.value(), DiffFromArgs(args), {}).c_str(),
      stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "wsvc-fuzz: %s\n", args.status().ToString().c_str());
    return Usage(stderr);
  }
  const std::string& command = args.value().command;
  if (command == "run") return RunCommand(args.value());
  if (command == "replay") return ReplayCommand(args.value());
  if (command == "generate") return GenerateCommand(args.value());
  if (command == "help" || command == "--help" || command == "-h") {
    return Usage(stdout);
  }
  std::fprintf(stderr, "wsvc-fuzz: unknown command '%s'\n", command.c_str());
  return Usage(stderr);
}
