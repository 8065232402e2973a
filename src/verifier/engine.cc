#include "verifier/engine.h"

#include <algorithm>
#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "automata/emptiness.h"
#include "common/thread_pool.h"
#include "obs/lock_profile.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timer.h"
#include "runtime/snapshot_view.h"
#include "runtime/transition.h"
#include "verifier/checkpoint.h"
#include "verifier/db_enum.h"
#include "verifier/first_witness.h"
#include "verifier/parallel_sweep.h"

namespace wsv::verifier {

Result<std::vector<data::Instance>> MaterializeDatabases(
    const spec::Composition& comp, const std::vector<NamedDatabase>& named,
    Interner& interner, data::Domain& domain) {
  if (named.size() != comp.peers().size()) {
    return Status::InvalidSpec(
        "fixed databases: expected one database per peer (" +
        std::to_string(comp.peers().size()) + "), got " +
        std::to_string(named.size()));
  }
  std::vector<data::Instance> out;
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const data::Schema& schema = comp.peers()[p].database_schema();
    data::Instance inst(&schema);
    for (const auto& [relation, tuples] : named[p]) {
      size_t idx = schema.IndexOf(relation);
      if (idx == data::Schema::kNpos) {
        return Status::NotFound("fixed database for peer '" +
                                comp.peers()[p].name() +
                                "' mentions unknown relation '" + relation +
                                "'");
      }
      for (const std::vector<std::string>& tuple : tuples) {
        if (tuple.size() != schema.relation(idx).arity()) {
          return Status::InvalidSpec("fixed database tuple arity mismatch in "
                                     "relation '" +
                                     relation + "'");
        }
        std::vector<data::Value> row;
        row.reserve(tuple.size());
        for (const std::string& spelling : tuple) {
          data::Value v = interner.Intern(spelling);
          domain.Add(v);
          row.push_back(v);
        }
        inst.relation(idx).Insert(data::Tuple(std::move(row)));
      }
    }
    out.push_back(std::move(inst));
  }
  return out;
}

PseudoDomain BuildPseudoDomain(const spec::Composition& comp,
                               const std::set<std::string>& extra_constants,
                               size_t fresh_count) {
  PseudoDomain pd;
  pd.interner = comp.BuildInterner();
  for (const std::string& c : extra_constants) pd.interner.Intern(c);
  for (SymbolId id = 0; id < pd.interner.size(); ++id) pd.domain.Add(id);
  for (size_t i = 0; i < fresh_count; ++i) {
    data::Value v = pd.interner.Intern("#" + std::to_string(i + 1));
    pd.fresh.push_back(v);
    pd.domain.Add(v);
  }
  return pd;
}

ValuationSpace::ValuationSpace(const data::Domain& domain,
                               const Interner& interner, size_t num_vars)
    : num_vars_(num_vars) {
  values_.assign(domain.values().begin(), domain.values().end());
  spellings_.reserve(values_.size());
  for (data::Value v : values_) spellings_.push_back(interner.Text(v));
  if (num_vars_ == 0) return;  // size_ stays 1: the single empty valuation
  if (values_.empty()) {
    size_ = 0;
    return;
  }
  for (size_t i = 0; i < num_vars_; ++i) {
    if (size_ > static_cast<size_t>(-1) / values_.size()) {
      size_ = static_cast<size_t>(-1);  // saturate |domain|^num_vars
      return;
    }
    size_ *= values_.size();
  }
}

void ValuationSpace::DecodeValues(size_t index,
                                  std::vector<data::Value>* out) const {
  out->clear();
  out->reserve(num_vars_);
  // Mixed-radix decode, position 0 least significant: the same order the
  // historical materializing enumeration produced.
  const size_t radix = values_.size();
  for (size_t i = 0; i < num_vars_; ++i) {
    out->push_back(values_[index % radix]);
    index /= radix;
  }
}

void ValuationSpace::DecodeSpellings(size_t index,
                                     std::vector<std::string>* out) const {
  // resize() keeps the element strings alive, so a scratch buffer reused
  // across the fan-out loop assigns into existing capacity instead of
  // allocating num_vars fresh strings per call.
  out->resize(num_vars_);
  const size_t radix = spellings_.size();
  for (size_t i = 0; i < num_vars_; ++i) {
    (*out)[i] = spellings_[index % radix];
    index /= radix;
  }
}

std::vector<std::string> ValuationSpace::DecodeSpellings(size_t index) const {
  std::vector<std::string> out;
  DecodeSpellings(index, &out);
  return out;
}

VerificationEngine::VerificationEngine(
    const spec::Composition* comp, const Interner* interner,
    data::Domain domain, std::vector<data::Value> fresh,
    EngineOptions options,
    std::optional<std::vector<data::Instance>> fixed_databases)
    : comp_(comp),
      interner_(interner),
      domain_(std::move(domain)),
      fresh_(std::move(fresh)),
      options_(std::move(options)),
      fixed_databases_(std::move(fixed_databases)) {
  // The deadline/cancellation token rides wherever the budget already goes,
  // so every search loop picks it up without extra plumbing.
  options_.budget.control = options_.control;
}

namespace {

/// A leaf is database-rigid when every relation it mentions is a fixed
/// database relation.
bool IsRigidLeaf(const fo::FormulaPtr& leaf, const spec::Composition& comp) {
  for (const std::string& rel : leaf->RelationNames()) {
    if (comp.Classify(rel) != fo::RelClass::kDatabase) return false;
  }
  return true;
}

/// Rebuilds `automaton` with guards partially evaluated under the rigid
/// truths, dropping edges whose guards became false.
automata::BuchiAutomaton RestrictAutomaton(
    const automata::BuchiAutomaton& automaton,
    const std::vector<int8_t>& truths) {
  automata::BuchiAutomaton out(automaton.num_props());
  for (size_t s = 0; s < automaton.num_states(); ++s) out.AddState();
  for (automata::StateId s : automaton.initial_states()) out.AddInitial(s);
  for (size_t s = 0; s < automaton.num_states(); ++s) {
    for (const automata::BuchiTransition& t :
         automaton.transitions_from(static_cast<automata::StateId>(s))) {
      automata::PropExprPtr guard =
          automata::PropExpr::PartialEval(t.guard, truths);
      if (guard->kind() == automata::PropExpr::Kind::kFalse) continue;
      out.AddTransition(static_cast<automata::StateId>(s), t.to,
                        std::move(guard));
    }
  }
  std::vector<automata::StateId> accepting;
  for (size_t s = 0; s < automaton.num_states(); ++s) {
    if (automaton.IsAccepting(static_cast<automata::StateId>(s))) {
      accepting.push_back(static_cast<automata::StateId>(s));
    }
  }
  out.AddAcceptingSet(std::move(accepting));
  return out;
}

/// The snapshot normalization for a task's leaves: keeps exactly the
/// snapshot parts some proposition (or, for previous inputs, some rule)
/// observes.
SnapshotNormalization NormalizationFor(
    const spec::Composition& comp, const std::vector<fo::FormulaPtr>& leaves) {
  SnapshotNormalization normalization;
  normalization.keep_mover = AnyPropositionMentionsPrefix(leaves, "move_");
  normalization.keep_flags =
      AnyPropositionMentionsPrefix(leaves, "received_") ||
      AnyPropositionMentionsPrefix(leaves, "sent_");
  // Action relations are pure outputs; previous-input relations matter only
  // to rules that read them. Keep each exactly when some proposition (or,
  // for prev, some rule) observes it.
  std::set<std::string> leaf_relations;
  for (const fo::FormulaPtr& leaf : leaves) {
    auto rels = leaf->RelationNames();
    leaf_relations.insert(rels.begin(), rels.end());
  }
  normalization.keep_actions = false;
  for (const std::string& rel : leaf_relations) {
    if (comp.Classify(rel) == fo::RelClass::kAction) {
      normalization.keep_actions = true;
      break;
    }
  }
  normalization.keep_prev.resize(comp.peers().size());
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const spec::Peer& peer = comp.peers()[p];
    std::set<std::string> rule_relations;
    for (const spec::Rule& rule : peer.rules()) {
      auto rels = rule.body->RelationNames();
      rule_relations.insert(rels.begin(), rels.end());
    }
    const data::Schema& prev = peer.prev_input_schema();
    std::vector<bool>& keep = normalization.keep_prev[p];
    keep.resize(prev.size(), false);
    for (size_t r = 0; r < prev.size(); ++r) {
      const std::string& name = prev.relation(r).name;
      keep[r] = rule_relations.count(name) > 0 ||
                leaf_relations.count(peer.name() + "." + name) > 0 ||
                (comp.peers().size() == 1 && leaf_relations.count(name) > 0);
    }
    // The lookback window shifts prev_i into prev_{i+1}: keeping a deeper
    // slot requires keeping every shallower slot of the same input. Slots
    // are laid out consecutively per input (Peer::Validate).
    size_t lookback = static_cast<size_t>(peer.lookback());
    for (size_t base = 0; base + lookback <= keep.size(); base += lookback) {
      for (size_t j = lookback; j-- > 1;) {
        if (keep[base + j]) keep[base + j - 1] = true;
      }
    }
  }
  return normalization;
}

}  // namespace

/// A string-keyed memo split into independently locked shards, with
/// pointer-stable entries. `make` runs under the shard lock on a key's
/// first lookup, so each entry is built exactly once even under concurrent
/// lookups (waiters block on the shard and then count a hit) and hit/miss
/// totals are deterministic at any job count. All shard mutexes report as
/// one lock site: contention there means lanes colliding on hot keys.
template <typename Entry, const char* kLockSite>
class ShardedMemo {
 public:
  /// `*was_miss` reports whether this call built the entry. The caller
  /// owns `key`'s buffer (reused across lookups); the memo copies it only
  /// on insert.
  template <typename Fn>
  Entry* GetOrCompute(const std::string& key, bool* was_miss,
                      const Fn& make) {
    Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
    std::lock_guard<obs::TimedMutex> lock(shard.mu);
    auto it = shard.map.find(key);
    *was_miss = it == shard.map.end();
    if (*was_miss) it = shard.map.emplace(key, make()).first;
    return it->second.get();
  }

 private:
  static constexpr size_t kShards = 8;
  struct Shard {
    obs::TimedMutex mu{kLockSite};
    std::unordered_map<std::string, std::unique_ptr<Entry>> map;
  };
  std::array<Shard, kShards> shards_;
};

/// Prefilter memo entry: at most 3^#leaves distinct truth-status vectors
/// versus |domain|^#vars valuations. Concurrent product searches read the
/// memoized automata in place.
struct PrefilterEntry {
  bool empty_language = false;
  automata::BuchiAutomaton automaton{0};
  /// Guard cubes compiled once per restricted automaton and shared by
  /// every product search (one per valuation) that hits this entry.
  ProductSearch::GuardTable guards;
};
constexpr char kPrefilterMemoSite[] = "prefilter_memo";
using PrefilterMemo = ShardedMemo<PrefilterEntry, kPrefilterMemoSite>;

/// Search memo entry, keyed by leaf signature and used on a complete graph
/// only. Two valuations with the same prefilter key whose leaf rows fall in
/// the same footprint results of every unfixed leaf see the same truth
/// values at every snapshot, so their product searches run on the same
/// restricted automaton over the same labelled graph and end the same way.
/// The first lane with a signature searches under the entry's lock, so
/// only lanes with that signature wait on it and each signature is searched
/// once at any job count. Only completed outcomes (found, not found,
/// budget-cut) are stored; after a deadline, cancel or hard error the entry
/// stays unfilled and the next lane with that signature searches again.
struct SearchEntry {
  obs::TimedMutex mu{"search_memo_entry"};
  bool done = false;
  /// The search's budget status: OK, or the kBudgetExceeded it was cut by.
  Status budget = Status::Ok();
  std::optional<LassoWitness> witness;
};
constexpr char kSearchMemoSite[] = "search_memo";
using SearchMemo = ShardedMemo<SearchEntry, kSearchMemoSite>;

/// Theorem 3.4's reduction (and Theorem 5.4's) checks every database
/// against one automaton and one set of leaves, so only the snapshot graph
/// depends on the database. Everything else a check needs is built here
/// once per run and shared read-only by concurrent CheckDatabases calls;
/// the prefilter memo locks internally.
struct VerificationEngine::RunState {
  const SymbolicTask* task = nullptr;
  SnapshotNormalization normalization;
  std::shared_ptr<const runtime::PropertySymbolTable> symbols;
  /// rigid[i]: leaf i reads fixed database relations only, so its truth
  /// (per valuation) is constant along every run over one database and can
  /// be folded into the automaton before the search.
  std::vector<bool> rigid;
  bool any_rigid = false;
  /// leaf_positions[i][k]: closure-variable position of leaf i's k-th free
  /// variable (in LeafCache::LeafVariables order).
  std::vector<std::vector<size_t>> leaf_positions;
  /// Each entry is a pure function of the automaton and its truth-status
  /// key, so one memo serves every database of the run. The search memo
  /// depends on the graph and stays per database.
  PrefilterMemo prefilter_memo;
};

/// Per-lane accumulators and scratch buffers of the valuation fan-out. A
/// lane is touched by exactly one thread at a time (lane 0 = the
/// dispatching caller, others = pool drainers), so nothing here is locked;
/// lanes are merged when the fan-out completes.
struct VerificationEngine::ValuationLane {
  struct Candidate {
    size_t index;
    LassoWitness lasso;
  };

  size_t searches = 0;
  size_t prefiltered = 0;
  size_t memo_misses = 0;
  size_t memo_hits = 0;
  SearchStats stats;
  /// Lowest-index witness this lane found.
  std::optional<Candidate> candidate;

  // Scratch reused across valuations: the decoded assignment, the rigid
  // truth-status vector and the two memo keys built from it (no per-lookup
  // string reallocation).
  std::vector<data::Value> values;
  std::vector<int8_t> rigid_truths;
  std::string memo_key;
  std::string search_key;
};

/// Per-database state shared by every valuation instance.
struct VerificationEngine::ValuationContext {
  RunState* run;
  SnapshotGraph* graph;
  LeafCache* cache;
  /// Null on an incomplete graph, where searches grow the graph.
  SearchMemo* search_memo;
  /// Collects the budget cuts of the searches.
  FirstWitness* race;
  /// A snapshot of the graph: rigid leaves read only the database, so any
  /// snapshot decides them.
  SnapshotId init_sid;
  const std::vector<const data::Relation*>* ever_sat;
  const std::vector<const data::Relation*>* always_sat;
};

Result<bool> VerificationEngine::CheckOneValuation(const ValuationContext& ctx,
                                                   size_t index,
                                                   ValuationLane& lane) {
  const SymbolicTask& task = *ctx.run->task;
  // The valuation count is |domain|^#vars — a deadline must be able to cut
  // a sweep short between instances, not only inside a search.
  if (options_.budget.control != nullptr) {
    WSV_RETURN_IF_ERROR(options_.budget.control->Check());
  }
  task.valuations.DecodeValues(index, &lane.values);

  // Build this instance's per-leaf lookup rows.
  const size_t num_leaves = task.leaves.size();
  lane.rigid_truths.assign(num_leaves, -1);
  std::vector<data::Tuple> leaf_rows;
  leaf_rows.reserve(num_leaves);
  for (size_t i = 0; i < num_leaves; ++i) {
    const std::vector<size_t>& positions = ctx.run->leaf_positions[i];
    std::vector<data::Value> row;
    row.reserve(positions.size());
    for (size_t pos : positions) row.push_back(lane.values[pos]);
    leaf_rows.push_back(data::Tuple(std::move(row)));
    if (ctx.run->rigid[i]) {
      WSV_ASSIGN_OR_RETURN(const fo::ValuationSet* sat,
                           ctx.cache->Get(ctx.init_sid, i));
      lane.rigid_truths[i] = sat->rows().Contains(leaf_rows[i]) ? 1 : 0;
    } else if ((*ctx.ever_sat)[i] != nullptr &&
               !(*ctx.ever_sat)[i]->Contains(leaf_rows[i])) {
      lane.rigid_truths[i] = 0;  // never satisfied anywhere in the graph
    } else if ((*ctx.always_sat)[i] != nullptr &&
               (*ctx.always_sat)[i]->Contains(leaf_rows[i])) {
      lane.rigid_truths[i] = 1;  // satisfied at every reachable snapshot
    }
  }

  // Prefilter: with database-rigid and never/always-satisfied propositions
  // fixed, an automaton with empty language cannot accept any run — skip
  // the search. Restriction + emptiness depends only on the truth-status
  // vector, so it is memoized across valuations and databases.
  bool any_fixed = false;
  for (int8_t t : lane.rigid_truths) any_fixed = any_fixed || t >= 0;
  lane.memo_key.assign(lane.rigid_truths.begin(), lane.rigid_truths.end());
  bool was_miss = false;
  const PrefilterEntry* entry =
      ctx.run->prefilter_memo.GetOrCompute(lane.memo_key, &was_miss, [&] {
        obs::PhaseTimer prefilter_phase("prefilter");
        auto e = std::make_unique<PrefilterEntry>();
        e->automaton = any_fixed ? RestrictAutomaton(task.automaton,
                                                     lane.rigid_truths)
                                 : task.automaton;
        e->empty_language =
            any_fixed && automata::IsEmptyLanguage(e->automaton);
        if (!e->empty_language) {
          e->guards = ProductSearch::CompileGuards(e->automaton);
        }
        return e;
      });
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& valuations_checked =
      registry.counter("engine.valuations_checked");
  valuations_checked.Add(1);
  if (was_miss) {
    ++lane.memo_misses;
    static obs::Counter& memo_misses =
        registry.counter("engine.prefilter_memo_misses");
    memo_misses.Add(1);
  } else {
    ++lane.memo_hits;
    static obs::Counter& memo_hits =
        registry.counter("engine.prefilter_memo_hits");
    memo_hits.Add(1);
  }
  if (entry->empty_language) {
    ++lane.prefiltered;
    static obs::Counter& prefiltered = registry.counter("engine.prefiltered");
    prefiltered.Add(1);
    return false;
  }

  // Search memo: the prefilter key, then one bit per footprint result of
  // each unfixed leaf — whether this valuation's row is in it. Every
  // snapshot's cell is one of those results, so equal keys mean equal
  // truth everywhere and the memoized outcome is this valuation's own.
  SearchEntry* memo_entry = nullptr;
  std::unique_lock<obs::TimedMutex> memo_lock;
  if (ctx.search_memo != nullptr) {
    lane.search_key = lane.memo_key;
    for (size_t i = 0; i < num_leaves; ++i) {
      if (lane.rigid_truths[i] >= 0) continue;
      uint8_t bits = 0;
      size_t used = 0;
      for (const auto& sat : ctx.cache->FootprintResults(i)) {
        bits = static_cast<uint8_t>(
            (bits << 1) | (sat->rows().Contains(leaf_rows[i]) ? 1 : 0));
        if (++used == 8) {
          lane.search_key.push_back(static_cast<char>(bits));
          bits = 0;
          used = 0;
        }
      }
      if (used > 0) lane.search_key.push_back(static_cast<char>(bits));
    }
    bool first_lookup = false;
    memo_entry = ctx.search_memo->GetOrCompute(
        lane.search_key, &first_lookup,
        [] { return std::make_unique<SearchEntry>(); });
    memo_lock = std::unique_lock<obs::TimedMutex>(memo_entry->mu);
  }

  std::optional<LassoWitness> found;
  Status budget = Status::Ok();
  if (memo_entry != nullptr && memo_entry->done) {
    static obs::Counter& search_memo_hits =
        registry.counter("engine.search_memo_hits");
    search_memo_hits.Add(1);
    found = memo_entry->witness;
    budget = memo_entry->budget;
  } else {
    ++lane.searches;
    static obs::Counter& searches = registry.counter("engine.searches");
    searches.Add(1);
    ProductSearch search(ctx.graph, ctx.cache, &entry->automaton,
                         std::move(leaf_rows), options_.budget,
                         &entry->guards);
    Result<std::optional<LassoWitness>> witness = [&] {
      obs::PhaseTimer ndfs_phase("ndfs");
      return search.FindAcceptedRun(&lane.stats);
    }();
    if (witness.ok()) {
      found = std::move(witness).value();
    } else if (witness.status().code() == StatusCode::kBudgetExceeded) {
      budget = witness.status();
    } else {
      return witness.status();  // a stop or hard error is never memoized
    }
    if (memo_entry != nullptr) {
      memo_entry->done = true;
      memo_entry->witness = found;
      memo_entry->budget = budget;
    }
  }

  if (!budget.ok()) {
    ctx.race->BudgetCut(index, std::move(budget));
    return false;
  }
  if (!found.has_value()) return false;
  if (!lane.candidate.has_value() || index < lane.candidate->index) {
    lane.candidate = ValuationLane::Candidate{index, std::move(*found)};
  }
  return true;
}

Result<bool> VerificationEngine::CheckDatabases(
    RunState& run, const std::vector<data::Instance>& dbs, size_t db_index,
    EngineOutcome& outcome) {
  const SymbolicTask& task = *run.task;
  // One trace span per database sweep iteration; args built only when the
  // recorder is on so the common path stays allocation-free.
  obs::PhaseTimer db_span(
      "check_db",
      obs::TracingEnabled()
          ? "{\"db\":" + std::to_string(db_index) + "}"
          : std::string());
  runtime::TransitionGenerator generator(comp_, dbs, domain_, interner_,
                                         options_.run);
  SnapshotGraph graph(&generator, run.normalization, run.symbols);
  LeafCache cache(&graph, task.leaves, interner_);
  struct GraphStatsGuard {
    SnapshotGraph& graph;
    LeafCache& cache;
    EngineOutcome& outcome;
    ~GraphStatsGuard() {
      outcome.search_stats.snapshots += graph.size();
      outcome.search_stats.graph_transitions += graph.transitions_computed();
      outcome.search_stats.leaf_cache_hits += cache.hits();
      outcome.search_stats.leaf_cache_misses += cache.misses();
      outcome.search_stats.leaf_evals += cache.leaf_evals();
      outcome.search_stats.footprint_hits += cache.footprint_hits();
      outcome.search_stats.leaves =
          std::max(outcome.search_stats.leaves, cache.leaves().size());
    }
  } guard{graph, cache, outcome};

  // Exhaustively explore the configuration graph once: every instance
  // shares it, and full coverage enables the ever-satisfied prefilter. Each
  // BFS level's successor computation runs on all lanes of the scheduler
  // (pool_); ids do not depend on the lane count.
  WSV_ASSIGN_OR_RETURN(bool complete_graph,
                       graph.ExploreAll(options_.budget.max_states,
                                        options_.budget.control, pool_,
                                        lanes_));
  if (!complete_graph) {
    outcome.stop_status = Status::BudgetExceeded(
        "configuration graph exceeded max_states = " +
        std::to_string(options_.budget.max_states) +
        " snapshots; verdict is bounded");
  } else {
    // Seal the leaf cache up front (in parallel when lanes are available):
    // every later Get is a lock-free hit, which both serves concurrent
    // product searches and keeps hit/miss statistics identical at every job
    // count. On an incomplete graph the cache stays lazy — the searches
    // below then run serially, since they grow the graph on the fly.
    WSV_RETURN_IF_ERROR(cache.SealAndPopulate(pool_, lanes_));
  }

  SnapshotId init_sid = 0;
  if (run.any_rigid) {
    WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* initials,
                         graph.Initials());
    init_sid = initials->front();
  }

  // Ever-satisfied unions per leaf (valid only over a complete graph): a
  // valuation row never satisfied anywhere makes its proposition
  // constant-false along every run.
  std::vector<const data::Relation*> ever_sat(task.leaves.size(), nullptr);
  std::vector<const data::Relation*> always_sat(task.leaves.size(), nullptr);
  if (complete_graph) {
    for (size_t i = 0; i < task.leaves.size(); ++i) {
      WSV_ASSIGN_OR_RETURN(ever_sat[i], cache.EverSatisfied(i));
      WSV_ASSIGN_OR_RETURN(always_sat[i], cache.AlwaysSatisfied(i));
    }
  }

  SearchMemo search_memo;
  FirstWitness race("engine.fanout_stop");
  const ValuationContext ctx{&run,
                             &graph,
                             &cache,
                             complete_graph ? &search_memo : nullptr,
                             &race,
                             init_sid,
                             &ever_sat,
                             &always_sat};
  const size_t total = task.valuations.size();
  // Valuation shard bounds; the full space on database sweeps (Run()
  // rejects a valuation range there). Indices stay absolute, so a shard's
  // witness valuation index matches the unsharded run's.
  const size_t v_lo = std::min(options_.valuation_range_lo, total);
  const size_t v_hi = std::min(options_.valuation_range_hi, total);

  // The valuation sweep, in chunks claimed in increasing index order. On
  // an incomplete graph the searches grow the graph, so they run on the
  // caller alone, in index order.
  obs::PhaseTimer fanout_phase("valuation_fanout");
  const size_t lanes = complete_graph ? lanes_ : 1;
  std::vector<ValuationLane> valuation_lanes(lanes);
  const size_t work = v_hi - v_lo;
  const size_t per_chunk =
      std::max<size_t>(1, std::min<size_t>(256, work / (lanes * 8) + 1));
  const size_t num_chunks = (work + per_chunk - 1) / per_chunk;
  static obs::Counter& chunk_counter =
      obs::Registry::Global().counter("engine.valuation_chunks");
  ThreadPool::ParallelChunks(
      pool_, lanes - 1, num_chunks, [&](size_t lane_id, size_t chunk) {
        ValuationLane& lane = valuation_lanes[lane_id];
        chunk_counter.Add(1);
        const size_t begin = v_lo + chunk * per_chunk;
        const size_t end = std::min(v_hi, begin + per_chunk);
        for (size_t vi = begin; vi < end && race.Open(vi); ++vi) {
          Result<bool> one = CheckOneValuation(ctx, vi, lane);
          if (!one.ok()) {
            if (RunControl::IsStopStatus(one.status())) {
              race.Stop(one.status());
            } else {
              race.Error(vi, one.status());
            }
            return;
          }
          if (*one) {
            race.Witness(vi);
            return;
          }
        }
      });

  for (const ValuationLane& lane : valuation_lanes) {
    outcome.searches += lane.searches;
    outcome.prefiltered += lane.prefiltered;
    outcome.prefilter_memo_misses += lane.memo_misses;
    outcome.prefilter_memo_hits += lane.memo_hits;
    outcome.search_stats.Add(lane.stats);
  }
  if (std::optional<Status> error = race.error()) return *error;
  const size_t witness = race.witness();
  if (race.stop().has_value()) {
    // A witness that raced with a deadline/cancel stop is still a sound
    // violation; without one the stop ends the check.
    if (witness == FirstWitness::kNone) return *race.stop();
    outcome.stop_status = *race.stop();
  } else if (std::optional<Status> budget_cut = race.budget_cut()) {
    outcome.stop_status = *budget_cut;
  }
  if (witness == FirstWitness::kNone) {
    // A shard cut short by its upper bound reports range-end — unless a
    // bounded search set a budget status, which must survive (range-end
    // would let a merge attest full coverage of a range whose valuations
    // were only partially searched).
    if (v_hi < total && outcome.stop_status.ok()) {
      outcome.stop_status = Status::RangeEnd(
          "valuation sweep stopped at the end of the assigned range; the "
          "verdict covers exactly this shard's valuations");
    }
    return false;
  }
  // The engine.violations counter is bumped by Run() once the winning
  // witness is selected, so it counts exactly one per run.
  for (ValuationLane& lane : valuation_lanes) {
    if (lane.candidate.has_value() && lane.candidate->index == witness) {
      outcome.lasso = std::move(lane.candidate->lasso);
    }
  }
  outcome.violation_found = true;
  outcome.databases = dbs;
  outcome.label = task.valuations.DecodeSpellings(witness);
  outcome.violation_valuation_index = witness;
  return true;
}

namespace {

void CountDatabase(EngineOutcome& outcome) {
  ++outcome.databases_checked;
  static obs::Counter& dbs =
      obs::Registry::Global().counter("engine.databases_checked");
  dbs.Add(1);
  obs::ProgressMeter::Global().MaybeBeat();
}

/// Best-effort checkpoint write: a failed write must not take down a sweep
/// that is otherwise making progress, so the status is only counted.
void PersistCheckpoint(const EngineOptions& options,
                       const std::vector<IndexInterval>& covered,
                       const std::vector<size_t>& failed,
                       size_t databases_completed,
                       const std::string& stop_reason) {
  Checkpoint cp;
  cp.fingerprint = options.checkpoint_fingerprint;
  cp.covered = covered;
  // A parallel sweep can fail a database ahead of the completed run; such
  // indices are re-checked on resume (which restarts at the first hole), so
  // persisting them would be both redundant and unreadable — the checkpoint
  // format requires failed indices inside the covered intervals.
  for (size_t index : failed) {
    if (IntervalsContain(covered, index)) cp.failed_indices.push_back(index);
  }
  cp.databases_completed = databases_completed;
  cp.stop_reason = stop_reason;
  Status written = WriteCheckpoint(options.checkpoint_path, cp);
  obs::Registry& registry = obs::Registry::Global();
  if (written.ok()) {
    registry.counter("checkpoint.writes").Add(1);
  } else {
    registry.counter("checkpoint.write_errors").Add(1);
  }
}

}  // namespace

Result<EngineOutcome> VerificationEngine::Run(SymbolicTask& task) {
  EngineOutcome outcome;
  size_t jobs = ThreadPool::ResolveJobs(options_.jobs);

  if (options_.db_range_hi < options_.db_range_lo) {
    return Status::InvalidSpec("--db-range upper bound " +
                               std::to_string(options_.db_range_hi) +
                               " is below its lower bound " +
                               std::to_string(options_.db_range_lo));
  }
  if (options_.valuation_range_hi < options_.valuation_range_lo) {
    return Status::InvalidSpec("--valuation-range upper bound " +
                               std::to_string(options_.valuation_range_hi) +
                               " is below its lower bound " +
                               std::to_string(options_.valuation_range_lo));
  }
  const bool has_valuation_range =
      options_.valuation_range_lo != 0 ||
      options_.valuation_range_hi != static_cast<size_t>(-1);
  if (has_valuation_range && !fixed_databases_.has_value()) {
    return Status::InvalidSpec(
        "--valuation-range requires pinned databases (--db): database "
        "sweeps shard with --db-range instead");
  }

  if (options_.count_only) {
    // Count-only: report the size of the enumeration space (the coordinate
    // system shard ranges index into) without checking anything.
    if (fixed_databases_.has_value()) {
      outcome.coverage_unit = "valuation";
      outcome.enumeration_count = task.valuations.size();
    } else {
      DatabaseEnumerator enumerator(comp_, domain_, fresh_,
                                    options_.iso_reduction);
      WSV_RETURN_IF_ERROR(enumerator.status());
      obs::PhaseTimer enum_phase("db_enum");
      std::vector<data::Instance> scratch;
      while (enumerator.Next(&scratch)) {
        ++outcome.enumeration_count;
        if (options_.control != nullptr) {
          WSV_RETURN_IF_ERROR(options_.control->Check());
        }
      }
    }
    return outcome;
  }

  obs::Registry::Global()
      .counter("engine.instances")
      .Add(task.valuations.size());

  RunState run;
  run.task = &task;
  run.normalization = NormalizationFor(*comp_, task.leaves);
  run.symbols = std::make_shared<const runtime::PropertySymbolTable>(
      runtime::PropertySymbols(*comp_));
  run.rigid.resize(task.leaves.size());
  run.leaf_positions.resize(task.leaves.size());
  for (size_t i = 0; i < task.leaves.size(); ++i) {
    run.rigid[i] = IsRigidLeaf(task.leaves[i], *comp_);
    run.any_rigid = run.any_rigid || run.rigid[i];
    // The sorted free variables: LeafCache's column order.
    for (const std::string& var : task.leaves[i]->FreeVariables()) {
      auto it = std::find(task.closure_variables.begin(),
                          task.closure_variables.end(), var);
      if (it == task.closure_variables.end()) {
        return Status::Internal("leaf variable '" + var +
                                "' is not a closure variable");
      }
      run.leaf_positions[i].push_back(
          static_cast<size_t>(it - task.closure_variables.begin()));
    }
  }

  // Rebinds the engine's borrowed scheduler for the duration of this run;
  // cleared on every exit path so a later Run never sees a dangling pool.
  struct SchedulerBinding {
    VerificationEngine* engine;
    SchedulerBinding(VerificationEngine* e, ThreadPool* pool, size_t lanes)
        : engine(e) {
      e->pool_ = pool;
      e->lanes_ = lanes;
    }
    ~SchedulerBinding() {
      engine->pool_ = nullptr;
      engine->lanes_ = 1;
    }
  };

  // One scheduler for both paths. The caller is lane 0 of every fan-out,
  // so the pool holds jobs - 1 helper threads and --jobs caps the threads
  // in use. A sweep runs its database lanes on it and each lane's
  // CheckDatabases fans out on the same pool: within-database helper tasks
  // queue behind busy database lanes and are simply abandoned (the fanning
  // lane drains its own chunks) when the pool is saturated.
  std::optional<ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs - 1);
  SchedulerBinding binding(this, pool.has_value() ? &*pool : nullptr, jobs);

  if (fixed_databases_.has_value()) {
    // A single pinned database: all parallelism is within-database (graph
    // exploration, leaf sealing, valuation fan-out).
    outcome.jobs = jobs;
    {
      // Pinned runs know their work total up front: the assigned valuation
      // slice. The heartbeat turns it into an ETA.
      const size_t v_total = task.valuations.size();
      const size_t v_lo = std::min(options_.valuation_range_lo, v_total);
      const size_t v_hi = std::min(options_.valuation_range_hi, v_total);
      obs::ProgressMeter::Global().SetGoal(
          obs::ProgressMeter::GoalUnit::kValuations, v_hi - v_lo);
    }
    CountDatabase(outcome);
    // The sweep lanes' exception boundary: a memory-budget throw becomes
    // the memory-budget stop below instead of escaping the run.
    Result<bool> found = GuardedCheck([&] {
      return CheckDatabases(run, *fixed_databases_, /*db_index=*/0, outcome);
    });
    if (!found.ok()) {
      if (!RunControl::IsStopStatus(found.status())) return found.status();
      // A deadline/cancel stop still yields a partial outcome: the caller
      // reports an inconclusive verdict over zero completed databases.
      outcome.stop_status = found.status();
    } else if (*found) {
      outcome.violation_db_index = 0;
      obs::Registry::Global().counter("engine.violations").Add(1);
    }
    if (found.ok()) outcome.completed_prefix = 1;
    // Pinned runs shard over valuations, so coverage is valuation-indexed:
    // a clean or range-end pass covered the whole assigned slice, a
    // violation covers the slice below its witness (mirroring the sweep's
    // witness-capped checkpoints), and any other stop claims nothing (the
    // fan-out has no per-valuation completion order to attest).
    outcome.coverage_unit = "valuation";
    if (found.ok()) {
      const size_t v_total = task.valuations.size();
      const size_t v_lo = std::min(options_.valuation_range_lo, v_total);
      const size_t v_hi = std::min(options_.valuation_range_hi, v_total);
      if (*found) {
        AddInterval(&outcome.covered, v_lo,
                    outcome.violation_valuation_index);
      } else if (outcome.stop_status.ok() ||
                 outcome.stop_status.code() == StatusCode::kRangeEnd) {
        AddInterval(&outcome.covered, v_lo, v_hi);
      }
    }
    outcome.stop_reason = StopReasonFromStatus(outcome.stop_status);
    if (outcome.stop_reason == StopReason::kDeadline) {
      obs::Registry::Global().counter("engine.deadline_hits").Add(1);
    }
    return outcome;
  }

  DatabaseEnumerator enumerator(comp_, domain_, fresh_,
                                options_.iso_reduction);
  WSV_RETURN_IF_ERROR(enumerator.status());

  // Every job count runs one sweep code path (jobs == 1 is the same
  // fan-out with no helper lanes): fault isolation, deadline/cancel
  // winding and checkpointing behave identically at every job count.
  SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.max_databases = options_.max_databases;
  // Coverage inherited from a resume, and the dispatch origin: the range
  // start, or the end of the covered run containing it. Indices stay
  // absolute throughout.
  const std::vector<IndexInterval> resume_base =
      NormalizeIntervals(options_.resume_covered);
  const size_t sweep_start =
      static_cast<size_t>(ResumeStart(resume_base, options_.db_range_lo));
  // Databases of this work unit that earlier legs completed.
  const size_t resumed_databases = sweep_start - options_.db_range_lo;
  sweep_options.start_index = sweep_start;
  sweep_options.end_index = options_.db_range_hi;
  // A bounded sweep (range upper bound or --max-databases) has a known
  // database total; the heartbeat derives an ETA from it. Unbounded sweeps
  // leave the goal unset — the enumeration size is what the run discovers.
  {
    const size_t bound =
        std::min(options_.db_range_hi, options_.max_databases);
    if (bound != static_cast<size_t>(-1) && bound > sweep_start) {
      obs::ProgressMeter::Global().SetGoal(
          obs::ProgressMeter::GoalUnit::kDatabases, bound - sweep_start);
    }
  }
  sweep_options.control = options_.control;
  sweep_options.skip_failed_databases =
      options_.on_db_error == OnDbError::kSkip;
  sweep_options.resume_failed = options_.resume_failed;
  if (options_.db_range_lo != 0 ||
      options_.db_range_hi != static_cast<size_t>(-1)) {
    obs::Registry& registry = obs::Registry::Global();
    registry.counter("sweep.range_lo").Add(options_.db_range_lo);
    if (options_.db_range_hi != static_cast<size_t>(-1)) {
      registry.counter("sweep.range_hi").Add(options_.db_range_hi);
    }
  }
  if (!options_.checkpoint_path.empty()) {
    sweep_options.checkpoint_every = options_.checkpoint_every;
    sweep_options.checkpoint_fn = [this, sweep_start, resume_base,
                                   resumed_databases](
                                      size_t completed_prefix,
                                      const std::vector<size_t>& failed,
                                      size_t databases_completed) {
      std::vector<IndexInterval> covered = resume_base;
      AddInterval(&covered, sweep_start, completed_prefix);
      PersistCheckpoint(options_, covered, failed,
                        resumed_databases + databases_completed,
                        "in-progress");
    };
  }
  sweep_options.pool = pool_;
  ParallelSweep sweep(&enumerator, sweep_options);
  WSV_ASSIGN_OR_RETURN(
      EngineOutcome swept,
      sweep.Run([&](size_t db_index, const std::vector<data::Instance>& dbs,
                    EngineOutcome& worker_outcome) {
        return CheckDatabases(run, dbs, db_index, worker_outcome);
      }));
  swept.jobs = jobs;
  if (swept.violation_found) {
    obs::Registry::Global().counter("engine.violations").Add(1);
  }
  if (swept.stop_reason == StopReason::kDeadline) {
    obs::Registry::Global().counter("engine.deadline_hits").Add(1);
  }
  // Coverage: resumed intervals plus the contiguous run this sweep
  // completed from its dispatch origin — capped below the witness when a
  // violation was found, so a resume (or a merge of shard checkpoints)
  // re-checks the witness database and reproduces the VIOLATED verdict
  // instead of silently skipping past it.
  std::vector<IndexInterval> covered = resume_base;
  AddInterval(&covered, sweep_start, swept.completed_prefix);
  if (swept.violation_found) {
    covered = IntersectIntervals(covered, 0, swept.violation_db_index);
  }
  swept.covered = covered;
  if (!options_.checkpoint_path.empty()) {
    // Final checkpoint carries the real stop reason — "complete" marks the
    // sweep as finished so a --resume of it is a no-op fast path.
    PersistCheckpoint(options_, covered, swept.failed_db_indices,
                      resumed_databases + swept.databases_checked,
                      StopReasonName(swept.stop_reason));
  }
  return swept;
}

}  // namespace wsv::verifier
