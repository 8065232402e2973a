// Oracle test for verifier::FlatExpander and verifier::SnapshotStore: for
// every snapshot of a reachable graph (explored up to a budget), the
// successors built on part vectors must rebuild, in order, to the
// normalized encodings of TransitionGenerator::Successors on the decoded
// snapshot — the object path that Simulator uses — and a candidate is
// reported interned exactly when its span is in the graph. Inputs cover
// every spec file, the loan composition at k = 1 and 2, and generated
// compositions of all six regimes (environment moves, perfect channels,
// deterministic flat sends, lookback, nested queues), E-T3.4's synthetic
// peer and a fixture that fires each branch of assembling a move on words
// (delete-only and conflicting updates, an arity-0 relation, multi-tuple
// flat sends under both send semantics, empty nested sends skipped and
// enqueued, a two-deep window), under each normalization, serially and on
// four lanes. Every
// expansion's memo traffic is checked too: rules are looked up only when
// their move missed, and the emitted-choice memo hits on the synthetic peer
// (so its hits are compared with the reference too). The store itself is
// checked against plain word sets: every snapshot's span round-trips
// through the codec, no two ids share a span, ids mean the same span on one
// lane and on four, and equal sections share one part id wherever they sit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "gen/generator.h"
#include "ltl/property.h"
#include "runtime/transition.h"
#include "spec/library.h"
#include "spec/parser.h"
#include "verifier/db_enum.h"
#include "verifier/engine.h"
#include "verifier/flat_expansion.h"
#include "verifier/snapshot_graph.h"

namespace wsv::verifier {
namespace {

/// One composition to expand, with its run semantics.
struct Input {
  Input(std::string name_in, spec::Composition comp_in)
      : name(std::move(name_in)), comp(std::move(comp_in)) {}

  std::string name;
  spec::Composition comp;
  std::set<std::string> constants;
  size_t fresh = 1;
  /// Pinned databases; empty takes canonical database `db_index` of the
  /// enumeration (or the last, if there are fewer; see CheckInput when the
  /// enumeration is out of reach).
  std::vector<NamedDatabase> pinned;
  size_t db_index = 2;
  runtime::RunOptions run;
  size_t max_snapshots = 400;
  /// Extra checks on the explored graph and each lane's memo traffic.
  std::function<void(const SnapshotGraph&, const SnapshotNormalization&,
                     const std::vector<MemoCounts>&)>
      check_memo;
};

/// The normalization SnapshotGraph applied to Snapshot objects before
/// expansion went flat.
void Normalize(const SnapshotNormalization& norm, runtime::Snapshot* snap) {
  if (!norm.keep_mover) snap->mover = runtime::kNoMover;
  if (!norm.keep_flags) {
    snap->received.assign(snap->received.size(), false);
    snap->sent.assign(snap->sent.size(), false);
  }
  if (!norm.keep_actions) {
    for (runtime::PeerConfig& cfg : snap->peers) cfg.action.Clear();
  }
  if (!norm.keep_prev.empty()) {
    for (size_t p = 0; p < snap->peers.size(); ++p) {
      const std::vector<bool>& keep = norm.keep_prev[p];
      for (size_t r = 0; r < keep.size(); ++r) {
        if (!keep[r]) snap->peers[p].prev.relation(r).Clear();
      }
    }
  }
}

/// Keep everything; drop each of mover, flags and actions alone; drop all
/// three and every other previous-input relation of each peer.
std::vector<SnapshotNormalization> Normalizations(
    const spec::Composition& comp) {
  std::vector<SnapshotNormalization> out(5);
  out[1].keep_mover = false;
  out[2].keep_flags = false;
  out[3].keep_actions = false;
  SnapshotNormalization& partial = out[4];
  partial.keep_mover = partial.keep_flags = partial.keep_actions = false;
  for (const spec::Peer& peer : comp.peers()) {
    std::vector<bool>& keep = partial.keep_prev.emplace_back();
    for (size_t r = 0; r < peer.prev_input_schema().size(); ++r) {
      keep.push_back(r % 2 == 0);
    }
  }
  return out;
}

/// Shape facts about the checked snapshots, for coverage assertions.
struct Coverage {
  size_t snapshots = 0;
  size_t longest_queue = 0;
  size_t env_successors = 0;
  /// Part ids that sit at positions of two section kinds (peer state,
  /// input, tail, channel contents) in some graph.
  size_t shared_parts = 0;
};

using Words = std::vector<uint32_t>;

/// Each snapshot's span, indexed by id.
using GraphSpans = std::vector<Words>;

/// Checks the store of `graph` against plain word sets, and returns each
/// snapshot's span: every span round-trips through the codec, no two ids
/// share a span, and each part id stands for one section's words and those
/// words for one id, whatever position (kind of section) they sit at.
GraphSpans CheckStore(const SnapshotGraph& graph, Coverage* coverage) {
  const SnapshotStore& store = graph.store();
  const runtime::FlatSnapshotCodec& codec = graph.codec();
  const size_t peers = codec.composition().peers().size();
  GraphSpans spans(graph.size());
  std::set<Words> distinct;
  std::map<Words, uint32_t> part_of;
  std::map<uint32_t, std::set<size_t>> kinds;  // 0-2 peer sections, 3 queue
  runtime::FlatLayout layout;
  std::vector<uint32_t> bounds;
  Words words;
  for (size_t sid = 0; sid < graph.size(); ++sid) {
    const runtime::FlatSnapshot span =
        store.Span(static_cast<SnapshotId>(sid), &spans[sid]);
    codec.Encode(codec.Decode(span), &words);
    EXPECT_EQ(words, spans[sid]) << "snapshot " << sid
                                 << " does not round-trip";
    EXPECT_TRUE(distinct.insert(spans[sid]).second)
        << "snapshot " << sid << " repeats an earlier span";

    const uint32_t* vec = store.vector(static_cast<SnapshotId>(sid));
    EXPECT_TRUE(std::equal(vec, vec + store.header_words(), span.data));
    codec.Locate(span, &layout);
    codec.Sections(span, layout, &bounds);
    EXPECT_EQ(bounds.size(), store.width() - store.header_words() + 1);
    EXPECT_EQ(bounds[0], store.header_words());
    for (size_t k = 0; k + 1 < bounds.size(); ++k) {
      const Words section(span.data + bounds[k], span.data + bounds[k + 1]);
      const uint32_t id = vec[store.header_words() + k];
      const auto [it, added] = part_of.emplace(section, id);
      EXPECT_EQ(it->second, id) << "snapshot " << sid << " section " << k;
      kinds[id].insert(k < 3 * peers ? k % 3 : 3);
    }
  }
  // Distinct sections have distinct ids.
  std::set<uint32_t> ids;
  for (const auto& [section, id] : part_of) {
    EXPECT_TRUE(ids.insert(id).second) << "part " << id << " is two sections";
  }
  for (const auto& [id, at] : kinds) coverage->shared_parts += at.size() > 1;
  return spans;
}

/// Empty when `sid`'s successors match the reference and are reported
/// interned exactly when the graph holds them, else a description of the
/// first difference.
std::string CompareSuccessors(const runtime::TransitionGenerator& generator,
                              const SnapshotGraph& graph,
                              const GraphSpans& spans,
                              const std::map<Words, SnapshotId>& ids,
                              const FlatExpander& expander,
                              const SnapshotNormalization& norm,
                              const Interner& interner,
                              FlatExpander::Lane* lane, MemoCounts* counts,
                              SnapshotId sid) {
  const SnapshotStore& store = graph.store();
  Candidates candidates;
  MemoCounts memo;
  Status status = expander.Expand(store, sid, lane, &candidates, &memo);
  if (!status.ok()) return "flat expansion failed: " + status.ToString();
  *counts += memo;
  // One rule lookup per move rule of each peer whose move missed.
  size_t min_rules = SIZE_MAX;
  size_t max_rules = 0;
  for (size_t p = 0; p < generator.composition().peers().size(); ++p) {
    const size_t rules = generator.move_rules(p).rules.size();
    min_rules = std::min(min_rules, rules);
    max_rules = std::max(max_rules, rules);
  }
  if (memo.rule_evals > memo.rule_lookups ||
      memo.rule_lookups < memo.move_evals * min_rules ||
      memo.rule_lookups > memo.move_evals * max_rules) {
    return "rule memo traffic " + std::to_string(memo.rule_evals) + "/" +
           std::to_string(memo.rule_lookups) + " (evals/lookups) after " +
           std::to_string(memo.move_evals) + " move evals";
  }
  auto reference = generator.Successors(graph.snapshot(sid));
  if (!reference.ok()) {
    return "reference expansion failed: " + reference.status().ToString();
  }
  const std::vector<SnapshotId>& found = candidates.ids;
  if (reference->size() != found.size()) {
    return "flat path has " + std::to_string(found.size()) +
           " successors, reference " + std::to_string(reference->size());
  }
  std::vector<uint32_t> words, rebuilt;
  size_t fresh = 0;
  for (size_t i = 0; i < found.size(); ++i) {
    runtime::Snapshot& expected = (*reference)[i];
    Normalize(norm, &expected);
    graph.codec().Encode(expected, &words);
    const runtime::FlatSnapshot want{words.data(),
                                     static_cast<uint32_t>(words.size())};
    const runtime::FlatSnapshot got =
        found[i] != FlatIdSet::kEmpty
            ? runtime::FlatSnapshot{spans[found[i]].data(),
                                    static_cast<uint32_t>(
                                        spans[found[i]].size())}
            : store.Span(candidates.fresh.data() + fresh++ * store.width(),
                         &rebuilt, &candidates.parts);
    if (!(got == want)) {
      return "successor " + std::to_string(i) + " differs: flat path " +
             graph.codec().Decode(got).ToString(generator.composition(),
                                                interner) +
             "\nreference " +
             expected.ToString(generator.composition(), interner);
    }
    auto it = ids.find(words);
    const SnapshotId interned = it == ids.end() ? FlatIdSet::kEmpty
                                                : it->second;
    if (found[i] != interned) {
      return "successor " + std::to_string(i) + " is reported as " +
             std::to_string(found[i]) + ", the graph has it as " +
             std::to_string(interned);
    }
  }
  return "";
}

/// Explores `in` under `norm` on `lanes` lanes, checks its store, then
/// checks every snapshot's successors against the reference, again on
/// `lanes` lanes with one memo lane each. Returns each snapshot's span.
GraphSpans CheckInput(const Input& in, const SnapshotNormalization& norm,
                      size_t lanes, Coverage* coverage) {
  SCOPED_TRACE(in.name + " at " + std::to_string(lanes) + " lanes");
  PseudoDomain pd = BuildPseudoDomain(in.comp, in.constants, in.fresh);
  std::vector<data::Instance> dbs;
  if (!in.pinned.empty()) {
    auto materialized =
        MaterializeDatabases(in.comp, in.pinned, pd.interner, pd.domain);
    EXPECT_TRUE(materialized.ok()) << materialized.status();
    if (!materialized.ok()) return {};
    dbs = std::move(*materialized);
  } else {
    DatabaseEnumerator enumerator(&in.comp, pd.domain, pd.fresh,
                                  /*iso_reduce=*/true);
    std::vector<data::Instance> db;
    for (size_t i = 0; i <= in.db_index && enumerator.Next(&db); ++i) {
      dbs = db;
    }
  }
  if (dbs.empty()) {
    // Too many databases to enumerate: every relation holds the diagonal
    // tuples (v, ..., v) of the domain.
    for (const spec::Peer& peer : in.comp.peers()) {
      data::Instance& db = dbs.emplace_back(&peer.database_schema());
      for (size_t r = 0; r < db.size(); ++r) {
        for (data::Value v : pd.domain.values()) {
          db.relation(r).Insert(data::Tuple(
              std::vector<data::Value>(db.relation(r).arity(), v)));
        }
      }
    }
  }
  runtime::TransitionGenerator generator(&in.comp, dbs, pd.domain,
                                         &pd.interner, in.run);
  std::optional<ThreadPool> pool;
  if (lanes > 1) pool.emplace(lanes - 1);
  ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;

  SnapshotGraph graph(&generator, norm);
  auto explored = graph.ExploreAll(in.max_snapshots, nullptr, pool_ptr, lanes);
  EXPECT_TRUE(explored.ok()) << explored.status();
  if (!explored.ok()) return {};
  const size_t n = graph.size();
  GraphSpans spans = CheckStore(graph, coverage);
  std::map<Words, SnapshotId> ids;
  for (size_t sid = 0; sid < n; ++sid) {
    ids.emplace(spans[sid], static_cast<SnapshotId>(sid));
  }

  FlatExpander expander(&generator, &graph.codec(), norm);
  std::vector<FlatExpander::Lane> memo_lanes(lanes);
  std::vector<MemoCounts> counts(lanes);
  std::vector<std::string> failures(n);
  ThreadPool::ParallelChunks(pool_ptr, lanes - 1, n,
                             [&](size_t lane, size_t sid) {
                               failures[sid] = CompareSuccessors(
                                   generator, graph, spans, ids, expander,
                                   norm, pd.interner, &memo_lanes[lane],
                                   &counts[lane],
                                   static_cast<SnapshotId>(sid));
                             });
  for (size_t sid = 0; sid < n; ++sid) {
    EXPECT_EQ(failures[sid], "") << "snapshot " << sid;
    if (!failures[sid].empty()) return spans;
  }

  MemoCounts total;
  for (const MemoCounts& c : counts) total += c;
  EXPECT_EQ(total.move_lookups, n * in.comp.peers().size());
  EXPECT_LE(total.move_evals, total.move_lookups);
  EXPECT_LE(total.rule_evals, total.rule_lookups);
  EXPECT_EQ(total.rule_lookups == 0, total.move_evals == 0);
  EXPECT_LE(total.input_evals, total.input_lookups);
  EXPECT_LE(total.choice_evals, total.choice_lookups);
  EXPECT_LE(total.choice_lookups, total.input_lookups);
  if (in.check_memo) in.check_memo(graph, norm, counts);

  coverage->snapshots += n;
  for (size_t sid = 0; sid < n; ++sid) {
    const runtime::Snapshot snap = graph.snapshot(static_cast<SnapshotId>(sid));
    for (const auto& queue : snap.channels) {
      coverage->longest_queue = std::max(coverage->longest_queue, queue.size());
    }
    if (snap.mover == runtime::kEnvMover) ++coverage->env_successors;
  }
  return spans;
}

/// CheckInput under every normalization at 1 and 4 lanes; an id must mean
/// the same snapshot at both lane counts.
Coverage CheckAll(const Input& in) {
  Coverage coverage;
  for (const SnapshotNormalization& norm : Normalizations(in.comp)) {
    const GraphSpans serial = CheckInput(in, norm, 1, &coverage);
    if (::testing::Test::HasFailure()) return coverage;
    const GraphSpans parallel = CheckInput(in, norm, 4, &coverage);
    if (::testing::Test::HasFailure()) return coverage;
    EXPECT_TRUE(serial == parallel) << in.name << ": ids differ by lanes";
  }
  return coverage;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(FlatExpansion, SpecFilesMatchReference) {
  size_t files = 0;
  size_t shared_parts = 0;
  for (const auto& entry : std::filesystem::directory_iterator(WSV_SPECS_DIR)) {
    if (entry.path().extension() != ".wsv") continue;
    auto comp = spec::ParseComposition(ReadFile(entry.path()));
    ASSERT_TRUE(comp.ok()) << entry.path() << ": " << comp.status();
    Input in(entry.path().filename().string(), std::move(*comp));
    in.run.allow_env_moves = !in.comp.IsClosed();
    const Coverage coverage = CheckAll(in);
    if (HasFailure()) return;
    EXPECT_GT(coverage.snapshots, 0u);
    shared_parts += coverage.shared_parts;
    ++files;
  }
  EXPECT_GE(files, 7u);
  // Equal sections of different kinds (say an empty state and an empty
  // queue) are one part.
  EXPECT_GT(shared_parts, 0u);
}

std::vector<NamedDatabase> LoanDatabase() {
  std::vector<NamedDatabase> dbs(4);
  dbs[0]["wants"] = {{"c1", "l1"}};
  dbs[1]["customer"] = {{"c1", "s1", "ann"}};
  dbs[2]["client"] = {{"c1", "s1", "ann"}};
  dbs[3]["creditRecord"] = {{"s1", "good"}};
  dbs[3]["accounts"] = {{"s1", "a1", "b1"}};
  return dbs;
}

TEST(FlatExpansion, LoanAtQueueBounds1And2) {
  for (size_t bound : {1, 2}) {
    auto comp = spec::library::LoanComposition();
    ASSERT_TRUE(comp.ok()) << comp.status();
    Input in("loan k=" + std::to_string(bound), std::move(*comp));
    in.pinned = LoanDatabase();
    in.run.queue_bound = bound;
    in.max_snapshots = 1500;
    const Coverage coverage = CheckAll(in);
    if (HasFailure()) return;
    // At k = 2 the in-queue head after a dequeue is the second message.
    EXPECT_EQ(coverage.longest_queue, bound);
  }
}

/// A generated composition of `regime` as an expansion input.
std::optional<Input> GeneratedInput(gen::Regime regime, uint64_t seed) {
  gen::GenOptions options;
  options.seed = seed;
  options.regime = regime;
  auto scenario = gen::GenerateScenario(options);
  EXPECT_TRUE(scenario.ok()) << scenario.status();
  if (!scenario.ok()) return std::nullopt;
  auto comp = spec::ParseComposition(scenario->spec_text);
  EXPECT_TRUE(comp.ok()) << comp.status();
  if (!comp.ok()) return std::nullopt;
  Input in(scenario->name, std::move(*comp));
  in.run = scenario->run;
  for (const auto& [channel, rows] : scenario->env_messages) {
    in.run.env_message_candidates[channel] = rows;
    for (const auto& row : rows) in.constants.insert(row.begin(), row.end());
  }
  if (!scenario->property.empty()) {
    auto property = ltl::Property::Parse(scenario->property);
    EXPECT_TRUE(property.ok()) << property.status();
    if (!property.ok()) return std::nullopt;
    auto constants = property->Constants();
    in.constants.insert(constants.begin(), constants.end());
  }
  return in;
}

TEST(FlatExpansion, GeneratedScenariosOfEveryRegime) {
  for (gen::Regime regime : gen::AllRegimes()) {
    for (uint64_t seed : {3, 11}) {
      std::optional<Input> in = GeneratedInput(regime, seed);
      if (!in.has_value()) return;
      const Coverage coverage = CheckAll(*in);
      if (HasFailure()) return;
      if (regime == gen::Regime::kExternal) {
        EXPECT_GT(coverage.env_successors, 0u) << in->name;
      }
    }
  }
}

/// E-T3.4's synthetic peer (the db_sweep benchmark's): `relations` unary
/// database/input/state triples with `options in_i <- r_i; insert s_i <-
/// in_i`. Its local view is its whole snapshot, so the move memo misses on
/// every snapshot, but each insert rule reads one input relation.
std::string SyntheticPeerSpec(size_t relations) {
  std::string db, in, st, rules;
  for (size_t i = 0; i < relations; ++i) {
    const std::string n = std::to_string(i);
    db += " r" + n + "(x);";
    in += " in" + n + "(x);";
    st += " s" + n + "(x);";
    rules += "    options in" + n + "(x) :- r" + n + "(x);\n";
    rules += "    insert s" + n + "(x) :- in" + n + "(x);\n";
  }
  return "peer P {\n  database {" + db + " }\n  input {" + in +
         " }\n  state {" + st + " }\n  rules {\n" + rules + "  }\n}\n";
}

TEST(FlatExpansion, SyntheticPeerRunsEachRuleOncePerFootprint) {
  auto comp = spec::ParseComposition(SyntheticPeerSpec(4));
  ASSERT_TRUE(comp.ok()) << comp.status();
  Input in("E-T3.4 synthetic peer", std::move(*comp));
  in.fresh = 2;
  in.db_index = SIZE_MAX;  // the last canonical database
  in.max_snapshots = 1500;
  size_t checked = 0;
  in.check_memo = [&](const SnapshotGraph& graph,
                      const SnapshotNormalization& norm,
                      const std::vector<MemoCounts>& lanes) {
    // Rule i (insert s_i) reads only in_i: count its distinct contents.
    const size_t rules = graph.generator().move_rules(0).rules.size();
    ASSERT_EQ(rules, 4u);
    std::vector<std::set<data::Relation>> footprints(rules);
    for (size_t sid = 0; sid < graph.size(); ++sid) {
      const runtime::Snapshot snap =
          graph.snapshot(static_cast<SnapshotId>(sid));
      for (size_t i = 0; i < rules; ++i) {
        footprints[i].insert(snap.peers[0].input.relation(i));
      }
    }
    size_t distinct = 0;
    for (const auto& f : footprints) distinct += f.size();
    size_t move_evals = 0;
    for (const MemoCounts& lane : lanes) {
      EXPECT_LE(lane.rule_evals, distinct);
      EXPECT_EQ(lane.rule_lookups, lane.move_evals * rules);
      move_evals += lane.move_evals;
    }
    // Without the mover tag a snapshot is its local view: no move hits.
    if (!norm.keep_mover) {
      EXPECT_EQ(move_evals, graph.size());
    }
    EXPECT_GT(graph.size(), 10 * distinct);
    ++checked;
  };
  CheckAll(in);
  EXPECT_EQ(checked, 10u);
}

/// The synthetic peer under db_sweep's normalization (no proposition reads
/// the mover, flags or actions, so the move memo is bypassed): each move
/// leads to one successor vector crossed with every input choice, and
/// distinct parents share their post-move vector, so the emitted-choice
/// memo hits on one lane and on four.
TEST(FlatExpansion, SyntheticPeerEmitsChoicesOncePerSuccessorVector) {
  auto comp = spec::ParseComposition(SyntheticPeerSpec(4));
  ASSERT_TRUE(comp.ok()) << comp.status();
  Input in("E-T3.4 synthetic peer", std::move(*comp));
  in.fresh = 2;
  in.db_index = SIZE_MAX;  // the last canonical database
  in.max_snapshots = 1500;
  SnapshotNormalization norm;
  norm.keep_mover = norm.keep_flags = norm.keep_actions = false;
  size_t checked = 0;
  in.check_memo = [&](const SnapshotGraph&, const SnapshotNormalization&,
                      const std::vector<MemoCounts>& lanes) {
    MemoCounts total;
    for (const MemoCounts& lane : lanes) total += lane;
    EXPECT_EQ(total.move_evals, total.move_lookups);
    EXPECT_GT(total.choice_lookups, 0u);
    EXPECT_LT(total.choice_evals, total.choice_lookups);
    ++checked;
  };
  Coverage coverage;
  for (size_t lanes : {1, 4}) CheckInput(in, norm, lanes, &coverage);
  EXPECT_EQ(checked, 2u);
}

/// Small compositions for the branches of assembling a move on words:
/// `held` has an insert and a delete rule that conflict when a value is
/// picked twice in a row (inside and outside the state), `gone` only a
/// delete rule, `ready` is an arity-0 relation with both, `many` is a flat
/// send of both database tuples, `bag` a nested send that is empty
/// whenever nothing is picked, the window is two inputs deep and the
/// action echoes the pick.
constexpr char kMoveBranchesSpec[] = R"(
peer A {
  database { item(x); }
  input    { pick(x); }
  lookback 2;
  state    { held(x); gone(x); ready(); }
  action   { echo(x); }
  outqueue flat   { many(x); }
  outqueue nested { bag(x); }
  rules {
    options pick(x) :- item(x);
    insert held(x) :- pick(x);
    delete held(x) :- prev_pick(x);
    delete gone(x) :- item(x);
    insert ready() :- exists x: pick(x);
    delete ready() :- exists x: prev_pick(x);
    action echo(x) :- pick(x);
    send many(x) :- item(x);
    send bag(x) :- pick(x);
  }
}
peer B {
  inqueue flat   { many(x); }
  inqueue nested { bag(x); }
  state { got(x); }
  rules {
    insert got(x) :- ?many(x) or ?bag(x);
  }
}
composition Branches { peers A, B; }
)";

/// How often each branch of a move's assembly fires over the snapshots of
/// a graph, evaluated on the object path (TransitionGenerator's view and
/// rule results).
struct MoveBranches {
  size_t delete_only = 0;      // a delete rule without an insert rule hits
  size_t conflict_kept = 0;    // inserted, deleted and in the state
  size_t conflict_absent = 0;  // inserted, deleted and not in the state
  size_t nullary_updates = 0;  // an arity-0 state relation's rule holds
  size_t multi_flat_sends = 0;   // a flat send of two or more tuples
  size_t empty_nested_sends = 0;
  size_t window_shifts = 0;    // an input pushes a non-empty prev_ deeper
  size_t actions = 0;          // a non-empty action (dropped unless kept)
  size_t deep_prev = 0;        // a non-empty prev relation at odd index
};

MoveBranches CountMoveBranches(const SnapshotGraph& graph) {
  const runtime::TransitionGenerator& generator = graph.generator();
  const spec::Composition& comp = generator.composition();
  MoveBranches out;
  for (size_t sid = 0; sid < graph.size(); ++sid) {
    const runtime::Snapshot snap =
        graph.snapshot(static_cast<SnapshotId>(sid));
    for (size_t p = 0; p < comp.peers().size(); ++p) {
      const spec::Peer& peer = comp.peers()[p];
      const runtime::MoveRules& rules = generator.move_rules(p);
      const runtime::LocalView view = generator.View(snap, p);
      std::vector<data::Relation> results(rules.rules.size());
      EXPECT_TRUE(
          generator.EvaluateMoveRules(p, view, nullptr, &results).ok());
      for (size_t s = 0; s < rules.insert.size(); ++s) {
        const int ins = rules.insert[s];
        const int del = rules.remove[s];
        if (del >= 0 && ins < 0 && !results[del].empty()) ++out.delete_only;
        if (view.state.relation(s).arity() == 0 &&
            ((ins >= 0 && !results[ins].empty()) ||
             (del >= 0 && !results[del].empty()))) {
          ++out.nullary_updates;
        }
        if (ins < 0 || del < 0) continue;
        const data::Relation both = results[ins].Intersection(results[del]);
        for (const data::Tuple& t : both.tuples()) {
          ++(view.state.relation(s).Contains(t) ? out.conflict_kept
                                                : out.conflict_absent);
        }
      }
      for (size_t q = 0; q < rules.send.size(); ++q) {
        if (rules.send[q] < 0) continue;
        const data::Relation& sent = results[rules.send[q]];
        if (peer.out_queues()[q].kind == spec::QueueKind::kNested) {
          out.empty_nested_sends += sent.empty();
        } else {
          out.multi_flat_sends += sent.size() >= 2;
        }
      }
      for (size_t i = 0; i < rules.window.size(); ++i) {
        out.window_shifts += rules.window[i].size() >= 2 &&
                             !view.input.relation(i).empty() &&
                             !view.prev.relation(rules.window[i][0]).empty();
      }
      for (int a : rules.action) out.actions += a >= 0 && !results[a].empty();
      for (size_t r = 1; r < view.prev.size(); r += 2) {
        out.deep_prev += !view.prev.relation(r).empty();
      }
    }
  }
  return out;
}

/// The move-assembly fixture under both flat-send semantics (a 2-tuple
/// send picks a tuple, or sets the send error) and with empty nested sends
/// skipped and enqueued; each branch must fire in the explored graph.
TEST(FlatExpansion, MoveBranchFixturesMatchReference) {
  for (const bool deterministic : {false, true}) {
    for (const bool skip_empty : {true, false}) {
      auto comp = spec::ParseComposition(kMoveBranchesSpec);
      ASSERT_TRUE(comp.ok()) << comp.status();
      Input in(std::string("move branches, deterministic sends ") +
                   (deterministic ? "on" : "off") + ", skip empty nested " +
                   (skip_empty ? "on" : "off"),
               std::move(*comp));
      in.pinned.resize(2);
      in.pinned[0]["item"] = {{"a"}, {"b"}};
      in.constants = {"a", "b"};
      in.run.deterministic_flat_sends = deterministic;
      in.run.skip_empty_nested_sends = skip_empty;
      in.max_snapshots = 600;
      size_t checked = 0;
      in.check_memo = [&](const SnapshotGraph& graph,
                          const SnapshotNormalization& norm,
                          const std::vector<MemoCounts>&) {
        // With every part kept, the graph holds each branch's snapshots.
        if (!norm.keep_mover || !norm.keep_flags || !norm.keep_actions ||
            !norm.keep_prev.empty()) {
          return;
        }
        const MoveBranches branches = CountMoveBranches(graph);
        EXPECT_GT(branches.delete_only, 0u);
        EXPECT_GT(branches.conflict_kept, 0u);
        EXPECT_GT(branches.conflict_absent, 0u);
        EXPECT_GT(branches.nullary_updates, 0u);
        EXPECT_GT(branches.multi_flat_sends, 0u);
        EXPECT_GT(branches.empty_nested_sends, 0u);
        EXPECT_GT(branches.window_shifts, 0u);
        EXPECT_GT(branches.actions, 0u);
        EXPECT_GT(branches.deep_prev, 0u);
        ++checked;
      };
      CheckAll(in);
      if (HasFailure()) return;
      EXPECT_EQ(checked, 2u);  // at 1 and 4 lanes
    }
  }
}

/// Definition-faithful multi-queue environment moves, over every tuple of
/// the domain (no configured candidates).
TEST(FlatExpansion, MultiQueueEnvironmentMovesMatchReference) {
  std::optional<Input> in = GeneratedInput(gen::Regime::kExternal, 5);
  ASSERT_TRUE(in.has_value());
  in->name += " multi-queue env";
  in->run.env_single_action = false;
  in->run.env_message_candidates.clear();
  const Coverage coverage = CheckAll(*in);
  EXPECT_GT(coverage.env_successors, 0u);
}

}  // namespace
}  // namespace wsv::verifier
