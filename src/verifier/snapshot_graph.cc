#include "verifier/snapshot_graph.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <unordered_map>
#include <utility>

#include "obs/lock_profile.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timer.h"
#include "runtime/snapshot_view.h"

namespace wsv::verifier {

namespace {

/// Books the memo traffic of some expansions in the registry.
void CountMemo(const MemoCounts& counts) {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& move_lookups = registry.counter("graph.move_lookups");
  static obs::Counter& move_evals = registry.counter("graph.move_evals");
  static obs::Counter& input_lookups =
      registry.counter("graph.input_lookups");
  static obs::Counter& input_evals = registry.counter("graph.input_evals");
  move_lookups.Add(counts.move_lookups);
  move_evals.Add(counts.move_evals);
  input_lookups.Add(counts.input_lookups);
  input_evals.Add(counts.input_evals);
}

}  // namespace

SnapshotGraph::SnapshotGraph(const runtime::TransitionGenerator* generator,
                             SnapshotNormalization normalization)
    : generator_(generator),
      codec_(&generator->composition()),
      expander_(generator, &codec_, std::move(normalization)),
      lanes_(1) {}

SnapshotId SnapshotGraph::InternSpan(const uint32_t* words, uint32_t count,
                                     size_t hash, size_t* hits) {
  SnapshotId found = intern_.Find(hash, [&](uint32_t id) {
    return flats_[id] == runtime::FlatSnapshot{words, count};
  });
  if (found != FlatIdSet::kEmpty) {
    ++*hits;
    return found;
  }
  SnapshotId id = static_cast<SnapshotId>(flats_.size());
  flats_.push_back(runtime::FlatSnapshot{arena_.CopyWords(words, count), count});
  hashes_.push_back(hash);
  intern_.Insert(hash, id);
  successors_.emplace_back();
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& interned = registry.counter("graph.snapshots");
  static obs::Counter& arena_bytes = registry.counter("graph.arena_bytes");
  interned.Add(1);
  arena_bytes.Add(count * sizeof(uint32_t));
  return id;
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Initials() {
  if (!initials_.has_value()) {
    WSV_ASSIGN_OR_RETURN(std::vector<runtime::Snapshot> snaps,
                         generator_->InitialSnapshots());
    // Initial snapshots are already normalized: no mover, no events, empty
    // actions and previous inputs.
    std::vector<SnapshotId> ids;
    std::vector<uint32_t> words;
    size_t hits = 0;
    for (const runtime::Snapshot& s : snaps) {
      codec_.Encode(s, &words);
      ids.push_back(InternSpan(
          words.data(), static_cast<uint32_t>(words.size()),
          runtime::HashFlatSnapshot(words.data(), words.size()), &hits));
    }
    obs::Registry& registry = obs::Registry::Global();
    registry.counter("graph.encode").Add(snaps.size());
    registry.counter("graph.intern_hits").Add(hits);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    initials_ = std::move(ids);
  }
  return &*initials_;
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Successors(
    SnapshotId sid) {
  if (!successors_[sid].has_value()) {
    Lane& lane = lanes_[0];
    SpanList& spans = lane.node;
    spans.Clear();
    MemoCounts counts;
    WSV_RETURN_IF_ERROR(
        expander_.Expand(flats_[sid], &lane.memo, &spans, &counts));
    // The spans stay in the lane while InternSpan copies new ones into the
    // persistent arena.
    std::vector<SnapshotId> ids;
    ids.reserve(spans.size());
    size_t hits = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const runtime::FlatSnapshot span = spans.span(i);
      ids.push_back(InternSpan(span.data, span.size,
                               runtime::HashFlatSnapshot(span.data, span.size),
                               &hits));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    transitions_ += ids.size();
    obs::Registry& registry = obs::Registry::Global();
    static obs::Counter& encodes = registry.counter("graph.encode");
    static obs::Counter& intern_hits = registry.counter("graph.intern_hits");
    static obs::Counter& calls = registry.counter("graph.successor_calls");
    static obs::Counter& edges = registry.counter("graph.transitions");
    static obs::Histogram& fanout =
        registry.histogram("graph.successors_per_snapshot");
    encodes.Add(spans.size());
    intern_hits.Add(hits);
    calls.Add(1);
    edges.Add(ids.size());
    fanout.Record(ids.size());
    CountMemo(counts);
    successors_[sid] = std::move(ids);
  }
  return &*successors_[sid];
}

Result<bool> SnapshotGraph::ExploreAll(size_t max_snapshots,
                                       RunControl* control, ThreadPool* pool,
                                       size_t lanes) {
  obs::PhaseTimer phase("graph_expand");
  Result<bool> complete = pool == nullptr || lanes <= 1
                              ? ExploreAllSerial(max_snapshots, control)
                              : ExploreAllParallel(max_snapshots, control,
                                                   pool, lanes);
  // Helper lanes are done; a complete graph needs no lane at all, while a
  // partial one keeps lane 0's memos for lazy expansion.
  if (complete.ok() && *complete) lanes_.clear();
  lanes_.resize(1);
  return complete;
}

Result<bool> SnapshotGraph::ExploreAllSerial(size_t max_snapshots,
                                             RunControl* control) {
  WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* inits, Initials());
  std::deque<SnapshotId> frontier(inits->begin(), inits->end());
  std::vector<bool> expanded;
  size_t expansions = 0;
  while (!frontier.empty()) {
    SnapshotId sid = frontier.front();
    frontier.pop_front();
    if (sid >= expanded.size()) expanded.resize(flats_.size(), false);
    if (expanded[sid]) continue;
    expanded[sid] = true;
    if ((++expansions & 0x3FF) == 0) {
      obs::ProgressMeter::Global().MaybeBeat();
      if (control != nullptr) WSV_RETURN_IF_ERROR(control->Check());
    }
    WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* succ, Successors(sid));
    for (SnapshotId next : *succ) {
      if (next >= expanded.size() || !expanded[next]) frontier.push_back(next);
    }
    if (flats_.size() > max_snapshots) return false;
  }
  fully_explored_ = true;
  return true;
}

Result<bool> SnapshotGraph::ExploreAllParallel(size_t max_snapshots,
                                               RunControl* control,
                                               ThreadPool* pool,
                                               size_t lanes) {
  WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* inits, Initials());
  std::vector<SnapshotId> frontier(inits->begin(), inits->end());
  if (lanes_.size() < lanes) lanes_.resize(lanes);

  /// One frontier node's expansion, or its error: per candidate its id
  /// if it was interned before this level, else FlatIdSet::kEmpty and its
  /// span (in the expanding lane's arena) and hash in `fresh`.
  struct NodeExpansion {
    Status status = Status::Ok();
    std::vector<SnapshotId> ids;
    std::vector<std::pair<runtime::FlatSnapshot, size_t>> fresh;
    MemoCounts memo;
  };

  while (!frontier.empty()) {
    const size_t n = frontier.size();

    // Compute phase: expand every frontier node concurrently and probe each
    // candidate against the interned set as it stood before this level.
    // The graph is not mutated here, so hits are final; only the misses'
    // spans are kept (in the lane's arena) for the sequential merge below,
    // the only place ids are assigned.
    std::vector<NodeExpansion> expansions(n);
    std::atomic<bool> stop_requested{false};
    obs::TimedMutex stop_mu{"graph.stop"};
    Status stop_status = Status::Ok();
    for (Lane& lane : lanes_) lane.arena.Reset();
    const size_t per_chunk =
        std::max<size_t>(1, std::min<size_t>(64, n / (lanes * 4) + 1));
    const size_t num_chunks = (n + per_chunk - 1) / per_chunk;
    ThreadPool::ParallelChunks(
        pool, lanes - 1, num_chunks, [&](size_t lane, size_t chunk) {
          const size_t begin = chunk * per_chunk;
          const size_t end = std::min(n, begin + per_chunk);
          for (size_t p = begin; p < end; ++p) {
            if (stop_requested.load(std::memory_order_relaxed)) return;
            if (control != nullptr && (p - begin) % 64 == 0) {
              if (lane == 0) obs::ProgressMeter::Global().MaybeBeat();
              Status status = control->Check();
              if (!status.ok()) {
                std::lock_guard<obs::TimedMutex> lock(stop_mu);
                if (stop_status.ok()) stop_status = std::move(status);
                stop_requested.store(true, std::memory_order_relaxed);
                return;
              }
            }
            NodeExpansion& out = expansions[p];
            Lane& scratch = lanes_[lane];
            SpanList& spans = scratch.node;
            spans.Clear();
            out.status = expander_.Expand(flats_[frontier[p]], &scratch.memo,
                                          &spans, &out.memo);
            if (!out.status.ok()) continue;
            out.ids.reserve(spans.size());
            for (size_t i = 0; i < spans.size(); ++i) {
              const runtime::FlatSnapshot span = spans.span(i);
              const size_t hash =
                  runtime::HashFlatSnapshot(span.data, span.size);
              const SnapshotId id = intern_.Find(
                  hash, [&](uint32_t known) { return flats_[known] == span; });
              out.ids.push_back(id);
              if (id == FlatIdSet::kEmpty) {
                out.fresh.push_back(
                    {{scratch.arena.CopyWords(span.data, span.size), span.size},
                     hash});
              }
            }
          }
        });
    if (!stop_status.ok()) return stop_status;

    // Merge pass (sequential): assign ids in exact frontier order — the
    // same order the serial BFS interns in — so ids, counters, transitions,
    // and the budget cut-off are bit-for-bit identical to a serial run.
    // Unresolved candidates re-probe the (now growing) table, which both
    // dedups within the level and copies each winner's span into the
    // persistent arena exactly once. Counters are summed over the merged
    // nodes and booked once per level.
    obs::Registry& registry = obs::Registry::Global();
    static obs::Counter& encodes = registry.counter("graph.encode");
    static obs::Counter& intern_hits = registry.counter("graph.intern_hits");
    static obs::Counter& calls = registry.counter("graph.successor_calls");
    static obs::Counter& edges = registry.counter("graph.transitions");
    static obs::Histogram& fanout =
        registry.histogram("graph.successors_per_snapshot");
    size_t merged = 0, merged_candidates = 0, hits = 0, level_edges = 0;
    MemoCounts memo;
    auto book = [&] {
      encodes.Add(merged_candidates);
      intern_hits.Add(hits);
      calls.Add(merged);
      edges.Add(level_edges);
      CountMemo(memo);
    };
    std::vector<SnapshotId> next_frontier;
    const size_t before_level = flats_.size();
    for (size_t p = 0; p < n; ++p) {
      NodeExpansion& exp = expansions[p];
      if (!exp.status.ok()) {
        book();
        return exp.status;
      }
      std::vector<SnapshotId>& ids = exp.ids;
      const size_t candidates = ids.size();
      for (size_t j = 0, k = 0; j < candidates; ++j) {
        if (ids[j] != FlatIdSet::kEmpty) {
          ++hits;
        } else {
          const auto& [span, hash] = exp.fresh[k++];
          ids[j] = InternSpan(span.data, span.size, hash, &hits);
        }
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      transitions_ += ids.size();
      ++merged;
      merged_candidates += candidates;
      level_edges += ids.size();
      memo += exp.memo;
      fanout.Record(ids.size());
      successors_[frontier[p]] = std::move(ids);
      if (flats_.size() > max_snapshots) {
        book();
        return false;
      }
    }
    book();
    next_frontier.reserve(flats_.size() - before_level);
    for (size_t id = before_level; id < flats_.size(); ++id) {
      next_frontier.push_back(static_cast<SnapshotId>(id));
    }

    obs::ProgressMeter::Global().MaybeBeat();
    if (control != nullptr) WSV_RETURN_IF_ERROR(control->Check());
    frontier = std::move(next_frontier);
  }
  fully_explored_ = true;
  return true;
}

fo::MapStructure SnapshotGraph::Structure(SnapshotId sid) const {
  return runtime::BuildPropertyStructure(generator_->composition(),
                                         generator_->databases(), codec_,
                                         flats_[sid], generator_->domain());
}

LeafCache::LeafCache(SnapshotGraph* graph, std::vector<fo::FormulaPtr> leaves,
                     const Interner* interner)
    : graph_(graph),
      leaves_(std::move(leaves)),
      evaluator_(interner),
      memos_(leaves_.size()) {
  std::unordered_map<std::string, runtime::SnapshotPart> symbols;
  for (runtime::PropertySymbol& symbol :
       runtime::PropertySymbols(graph_->generator().composition())) {
    symbols.emplace(std::move(symbol.name), symbol.part);
  }
  leaf_vars_.reserve(leaves_.size());
  for (size_t i = 0; i < leaves_.size(); ++i) {
    auto frees = leaves_[i]->FreeVariables();
    leaf_vars_.emplace_back(frees.begin(), frees.end());  // sets are sorted
    // A name the structure does not bind reads nothing; evaluation reports
    // it (the same error at every snapshot).
    std::vector<runtime::SnapshotPart>& parts = memos_[i].parts;
    for (const std::string& name : leaves_[i]->RelationNames()) {
      auto it = symbols.find(name);
      if (it == symbols.end() ||
          it->second.kind == runtime::SnapshotPart::Kind::kDatabase) {
        continue;
      }
      parts.push_back(it->second);
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  }
}

void LeafCache::AppendKey(size_t leaf, runtime::FlatSnapshot flat,
                          const runtime::FlatLayout& layout,
                          std::vector<uint32_t>* out) const {
  for (const runtime::SnapshotPart& part : memos_[leaf].parts) {
    graph_->codec().AppendPart(flat, layout, part, out);
  }
}

void LeafCache::CountMisses(size_t snapshots, size_t evals) {
  const size_t cells = snapshots * leaves_.size();
  misses_.fetch_add(snapshots, std::memory_order_relaxed);
  evaluated_ += snapshots;
  leaf_evals_ += evals;
  footprint_hits_ += cells - evals;
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& misses = registry.counter("leafcache.misses");
  static obs::Counter& leaf_evals = registry.counter("leafcache.leaf_evals");
  static obs::Counter& footprint_hits =
      registry.counter("leafcache.footprint_hits");
  misses.Add(snapshots);
  leaf_evals.Add(evals);
  footprint_hits.Add(cells - evals);
}

bool LeafCache::Evaluated(SnapshotId sid) const {
  const size_t first = static_cast<size_t>(sid) * leaves_.size();
  return first < cells_.size() && cells_[first] != nullptr;
}

Status LeafCache::EvaluateSnapshot(SnapshotId sid) {
  obs::PhaseTimer phase("leaf_eval");
  const runtime::FlatSnapshot flat = graph_->flat(sid);
  graph_->codec().Locate(flat, &layout_);
  // Built only if some leaf meets a footprint without a result.
  std::optional<fo::MapStructure> structure;
  std::vector<const fo::ValuationSet*> row(leaves_.size());
  size_t evals = 0;
  for (size_t i = 0; i < leaves_.size(); ++i) {
    Memo& memo = memos_[i];
    key_.clear();
    AppendKey(i, flat, layout_, &key_);
    const size_t hash = runtime::HashFlatSnapshot(key_.data(), key_.size());
    uint32_t id = memo.Find(key_.data(), key_.size(), hash);
    if (id == FlatIdSet::kEmpty) id = memo.Add(key_.data(), key_.size(), hash);
    if (memo.results[id] == nullptr) {
      if (!structure.has_value()) structure = graph_->Structure(sid);
      WSV_ASSIGN_OR_RETURN(fo::ValuationSet result,
                           evaluator_.Evaluate(leaves_[i], *structure));
      memo.results[id] = std::make_unique<fo::ValuationSet>(std::move(result));
      ++evals;
    }
    row[i] = memo.results[id].get();
  }
  std::copy(row.begin(), row.end(), cells_.begin() + sid * leaves_.size());
  CountMisses(1, evals);
  return Status::Ok();
}

Result<const fo::ValuationSet*> LeafCache::Get(SnapshotId sid, size_t leaf) {
  WSV_ASSIGN_OR_RETURN(const fo::ValuationSet* const* row, GetAll(sid));
  return row[leaf];
}

Result<const fo::ValuationSet* const*> LeafCache::GetAll(SnapshotId sid) {
  const size_t first = static_cast<size_t>(sid) * leaves_.size();
  if (first + leaves_.size() > cells_.size()) {
    cells_.resize(first + leaves_.size(), nullptr);
  }
  if (!leaves_.empty() && cells_[first] == nullptr) {
    WSV_RETURN_IF_ERROR(EvaluateSnapshot(sid));
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& hits =
        obs::Registry::Global().counter("leafcache.hits");
    hits.Add(1);
  }
  return cells_.data() + first;
}

Status LeafCache::SealAndPopulate(ThreadPool* pool, size_t lanes) {
  if (leaves_.empty()) return Status::Ok();
  const size_t n = graph_->size();
  if (cells_.size() < n * leaves_.size()) {
    cells_.resize(n * leaves_.size(), nullptr);
  }
  std::vector<SnapshotId> pending;
  for (size_t sid = 0; sid < n; ++sid) {
    if (!Evaluated(static_cast<SnapshotId>(sid))) {
      pending.push_back(static_cast<SnapshotId>(sid));
    }
  }
  if (pending.empty()) return Status::Ok();
  obs::PhaseTimer phase("leaf_eval");
  // Batches bound the transient footprint keys; they run in snapshot-id
  // order, so the first failing batch holds the lowest failing id.
  constexpr size_t kBatch = 8192;
  for (size_t lo = 0; lo < pending.size(); lo += kBatch) {
    const size_t count = std::min(kBatch, pending.size() - lo);
    WSV_RETURN_IF_ERROR(SealBatch(pending.data() + lo, count, pool, lanes));
  }
  return Status::Ok();
}

Status LeafCache::SealBatch(const SnapshotId* sids, size_t count,
                            ThreadPool* pool, size_t lanes) {
  const size_t num_leaves = leaves_.size();
  const size_t helpers = lanes > 0 ? lanes - 1 : 0;

  // 1. Footprint keys, in parallel. Chunk c keys sids[c * kPerChunk, ...)
  // into its own word buffer; cell (p, leaf) is refs[p * num_leaves + leaf].
  struct KeyRef {
    uint32_t at = 0;
    uint32_t size = 0;
    size_t hash = 0;
  };
  constexpr size_t kPerChunk = 64;
  const size_t num_chunks = (count + kPerChunk - 1) / kPerChunk;
  std::vector<std::vector<uint32_t>> chunk_words(num_chunks);
  std::vector<KeyRef> refs(count * num_leaves);
  std::vector<runtime::FlatLayout> layouts(helpers + 1);
  ThreadPool::ParallelChunks(
      pool, helpers, num_chunks, [&](size_t lane, size_t chunk) {
        runtime::FlatLayout& layout = layouts[lane];
        std::vector<uint32_t>& words = chunk_words[chunk];
        const size_t end = std::min(count, (chunk + 1) * kPerChunk);
        for (size_t p = chunk * kPerChunk; p < end; ++p) {
          const runtime::FlatSnapshot flat = graph_->flat(sids[p]);
          graph_->codec().Locate(flat, &layout);
          for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
            KeyRef& ref = refs[p * num_leaves + leaf];
            ref.at = static_cast<uint32_t>(words.size());
            AppendKey(leaf, flat, layout, &words);
            ref.size = static_cast<uint32_t>(words.size() - ref.at);
            ref.hash =
                runtime::HashFlatSnapshot(words.data() + ref.at, ref.size);
          }
        }
      });

  // 2. Dedupe per leaf in snapshot-id order. Each leaf owns its memo, so
  // leaves run in parallel without a lock and ids never depend on lanes.
  // A footprint still lacking a result is queued once, at its first
  // snapshot.
  struct Todo {
    size_t pos;  // index into sids
    size_t leaf;
    uint32_t id;
  };
  std::vector<uint32_t> ids(refs.size());
  std::vector<std::vector<Todo>> leaf_todos(num_leaves);
  ThreadPool::ParallelChunks(
      pool, helpers, num_leaves, [&](size_t, size_t leaf) {
        Memo& memo = memos_[leaf];
        std::vector<bool> queued(memo.size(), false);
        for (size_t p = 0; p < count; ++p) {
          const KeyRef& ref = refs[p * num_leaves + leaf];
          const uint32_t* key = chunk_words[p / kPerChunk].data() + ref.at;
          uint32_t id = memo.Find(key, ref.size, ref.hash);
          if (id == FlatIdSet::kEmpty) {
            id = memo.Add(key, ref.size, ref.hash);
            queued.push_back(false);
          }
          if (memo.results[id] == nullptr && !queued[id]) {
            queued[id] = true;
            leaf_todos[leaf].push_back(Todo{p, leaf, id});
          }
          ids[p * num_leaves + leaf] = id;
        }
      });
  chunk_words.clear();
  refs.clear();

  // 3. Evaluate each queued footprint once, in parallel, grouped by its
  // first snapshot so that snapshot's structure is built once.
  std::vector<Todo> todos;
  for (const std::vector<Todo>& t : leaf_todos) {
    todos.insert(todos.end(), t.begin(), t.end());
  }
  std::sort(todos.begin(), todos.end(), [](const Todo& a, const Todo& b) {
    return a.pos != b.pos ? a.pos < b.pos : a.leaf < b.leaf;
  });
  std::vector<size_t> groups;  // start of each same-snapshot run of todos
  for (size_t t = 0; t < todos.size(); ++t) {
    if (t == 0 || todos[t].pos != todos[t - 1].pos) groups.push_back(t);
  }
  groups.push_back(todos.size());
  std::vector<Status> group_status(groups.size() - 1, Status::Ok());
  ThreadPool::ParallelChunks(
      pool, helpers, groups.size() - 1, [&](size_t, size_t g) {
        const fo::MapStructure structure =
            graph_->Structure(sids[todos[groups[g]].pos]);
        for (size_t t = groups[g]; t < groups[g + 1]; ++t) {
          auto result = evaluator_.Evaluate(leaves_[todos[t].leaf], structure);
          if (!result.ok()) {
            group_status[g] = result.status();
            return;
          }
          memos_[todos[t].leaf].results[todos[t].id] =
              std::make_unique<fo::ValuationSet>(std::move(result).value());
        }
      });
  // Groups are in snapshot-id order: the first failure is the lowest id.
  for (Status& status : group_status) {
    if (!status.ok()) return status;
  }

  // 4. Point every cell at its footprint's shared result.
  for (size_t p = 0; p < count; ++p) {
    const fo::ValuationSet** row = cells_.data() + sids[p] * num_leaves;
    for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
      row[leaf] = memos_[leaf].results[ids[p * num_leaves + leaf]].get();
    }
  }
  CountMisses(count, todos.size());
  return Status::Ok();
}

Status LeafCache::EnsureComplete() {
  if (evaluated_ == graph_->size()) return Status::Ok();
  return SealAndPopulate();
}

Result<const data::Relation*> LeafCache::EverSatisfied(size_t leaf) {
  if (ever_.size() < leaves_.size()) ever_.resize(leaves_.size());
  if (!ever_[leaf].has_value()) {
    WSV_RETURN_IF_ERROR(EnsureComplete());
    // Every snapshot's result is one of the leaf's distinct results.
    data::Relation all(leaf_vars_[leaf].size());
    for (const std::unique_ptr<fo::ValuationSet>& sat : memos_[leaf].results) {
      all = all.Union(sat->rows());
    }
    ever_[leaf] = std::move(all);
  }
  return &*ever_[leaf];
}

Result<const data::Relation*> LeafCache::AlwaysSatisfied(size_t leaf) {
  if (always_.size() < leaves_.size()) always_.resize(leaves_.size());
  if (!always_[leaf].has_value()) {
    WSV_RETURN_IF_ERROR(EnsureComplete());
    const std::vector<std::unique_ptr<fo::ValuationSet>>& results =
        memos_[leaf].results;
    data::Relation common(leaf_vars_[leaf].size());
    for (size_t i = 0; i < results.size(); ++i) {
      common = i == 0 ? results[i]->rows()
                      : common.Intersection(results[i]->rows());
      if (common.empty()) break;
    }
    always_[leaf] = std::move(common);
  }
  return &*always_[leaf];
}

}  // namespace wsv::verifier
