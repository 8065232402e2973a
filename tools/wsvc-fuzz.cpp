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
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/strings.h"
#include "gen/differ.h"
#include "gen/generator.h"
#include "gen/rng.h"

namespace {

using namespace wsv;

Result<std::vector<gen::Regime>> ParseRegimes(const cli::ParsedArgs& args) {
  if (!args.Has("--regimes")) return gen::AllRegimes();
  std::vector<gen::Regime> regimes;
  for (const std::string& name : Split(args.Get("--regimes"), ',')) {
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

gen::DiffOptions DiffFromArgs(const cli::ParsedArgs& args) {
  gen::DiffOptions diff;
  diff.jobs = args.Number("--jobs", 2);
  diff.shards = args.Number("--shards", 2);
  if (args.Has("--break-leg")) {
    diff.break_leg = args.Get("--break-leg");
  } else if (const char* env = std::getenv("WSV_FUZZ_BREAK")) {
    diff.break_leg = env;
  }
  return diff;
}

int RunCommand(const cli::ParsedArgs& args) {
  const uint64_t base_seed = args.Number("--seed", 1);
  const uint64_t count = args.Number("--count", 200);
  const uint64_t max_states = args.Number("--max-states", 0);
  auto regimes_result = ParseRegimes(args);
  if (!regimes_result.ok()) {
    std::fprintf(stderr, "wsvc-fuzz: %s\n",
                 regimes_result.status().ToString().c_str());
    return 2;
  }
  const std::vector<gen::Regime>& regimes = regimes_result.value();
  const gen::DiffOptions diff = DiffFromArgs(args);
  const std::string corpus_dir =
      args.Has("--corpus") ? args.Get("--corpus") : "tests/corpus";

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

int ReplayCommand(const cli::ParsedArgs& args) {
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
    } else if (!args.Has("--quiet")) {
      std::printf("PASS %s (%zu legs%s)\n", path.c_str(),
                  outcome.value().legs.size(),
                  corpus.value().regenerated ? ", regenerated" : "");
    }
  }
  return failures == 0 ? 0 : 1;
}

int GenerateCommand(const cli::ParsedArgs& args) {
  gen::GenOptions options;
  options.seed = args.Number("--seed", 1);
  if (args.Has("--regime")) {
    options.regime = *gen::RegimeFromName(args.Get("--regime"));
  }
  Result<gen::Scenario> scenario = gen::GenerateScenario(options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "wsvc-fuzz: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const uint64_t max_states = args.Number("--max-states", 0);
  if (max_states > 0) scenario.value().max_states = max_states;
  std::fputs(
      gen::RenderCorpusFile(scenario.value(), DiffFromArgs(args), {}).c_str(),
      stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Tool& tool = cli::FuzzTool();
  const std::string first = argc > 1 ? argv[1] : "";
  if (first == "help" || first == "--help" || first == "-h") {
    std::fputs(cli::Usage(tool, "").c_str(), stdout);
    return 0;
  }
  const cli::ParsedArgs args = cli::ParseOrExit(tool, argc, argv);
  if (args.command == "run") return RunCommand(args);
  if (args.command == "replay") return ReplayCommand(args);
  return GenerateCommand(args);
}
