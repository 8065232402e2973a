#include "verifier/snapshot_graph.h"

#include <algorithm>
#include <atomic>
#include <utility>

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
  static obs::Counter& rule_lookups = registry.counter("graph.rule_lookups");
  static obs::Counter& rule_evals = registry.counter("graph.rule_evals");
  static obs::Counter& input_lookups =
      registry.counter("graph.input_lookups");
  static obs::Counter& input_evals = registry.counter("graph.input_evals");
  static obs::Counter& choice_lookups =
      registry.counter("graph.choice_lookups");
  static obs::Counter& choice_evals = registry.counter("graph.choice_evals");
  move_lookups.Add(counts.move_lookups);
  move_evals.Add(counts.move_evals);
  rule_lookups.Add(counts.rule_lookups);
  rule_evals.Add(counts.rule_evals);
  input_lookups.Add(counts.input_lookups);
  input_evals.Add(counts.input_evals);
  choice_lookups.Add(counts.choice_lookups);
  choice_evals.Add(counts.choice_evals);
}

}  // namespace

SnapshotGraph::SnapshotGraph(
    const runtime::TransitionGenerator* generator,
    SnapshotNormalization normalization,
    std::shared_ptr<const runtime::PropertySymbolTable> symbols)
    : generator_(generator),
      symbols_(symbols != nullptr
                   ? std::move(symbols)
                   : std::make_shared<const runtime::PropertySymbolTable>(
                         runtime::PropertySymbols(generator->composition()))),
      codec_(&generator->composition()),
      expander_(generator, &codec_, std::move(normalization)),
      store_(&codec_),
      lanes_(1),
      expansions_(1) {}

SnapshotId SnapshotGraph::Intern(const uint32_t* vec, size_t hash,
                                 size_t* hits) {
  SnapshotId id = store_.Find(vec, hash);
  if (id != FlatIdSet::kEmpty) {
    ++*hits;
    return id;
  }
  id = store_.Add(vec, hash);
  successors_.emplace_back();
  static obs::Counter& interned =
      obs::Registry::Global().counter("graph.snapshots");
  interned.Add(1);
  return id;
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Initials() {
  if (!initials_.has_value()) {
    WSV_ASSIGN_OR_RETURN(std::vector<runtime::Snapshot> snaps,
                         generator_->InitialSnapshots());
    // Initial snapshots are already normalized: no mover, no events, empty
    // actions and previous inputs.
    const size_t bytes = store_.bytes();
    std::vector<SnapshotId> ids;
    std::vector<uint32_t> words, vec;
    MergeTally tally;
    for (const runtime::Snapshot& s : snaps) {
      codec_.Encode(s, &words);
      store_.Split({words.data(), static_cast<uint32_t>(words.size())}, &vec);
      ids.push_back(Intern(vec.data(), store_.Hash(vec.data()), &tally.hits));
    }
    tally.candidates = snaps.size();
    Book(tally, bytes);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    initials_ = std::move(ids);
  }
  return &*initials_;
}

void SnapshotGraph::Expansion::Clear() {
  nodes.clear();
  candidates.Clear();
  status = Status::Ok();
}

Status SnapshotGraph::Expand(SnapshotId sid, FlatExpander::Lane& lane,
                             Expansion* out) const {
  MemoCounts memo;
  WSV_RETURN_IF_ERROR(
      expander_.Expand(store_, sid, &lane, &out->candidates, &memo));
  out->nodes.push_back({out->candidates.ids.size(), memo});
  return Status::Ok();
}

void SnapshotGraph::Merge(SnapshotId sid, Expansion& exp, size_t node,
                          size_t* begin, size_t* fresh, MergeTally* tally) {
  Candidates& candidates = exp.candidates;
  const size_t end = exp.nodes[node].end;
  std::vector<SnapshotId> ids(candidates.ids.begin() + *begin,
                              candidates.ids.begin() + end);
  *begin = end;
  // Candidates missing before the expansion re-probe the (now growing)
  // store, which both dedups within a batch and adds each winner exactly
  // once; a section unseen at expansion is interned first.
  for (SnapshotId& id : ids) {
    if (id != FlatIdSet::kEmpty) {
      ++tally->hits;
      continue;
    }
    uint32_t* vec = candidates.fresh.data() + *fresh * store_.width();
    size_t hash = candidates.fresh_hashes[(*fresh)++];
    if (store_.InternUnseen(vec, candidates)) hash = store_.Hash(vec);
    id = Intern(vec, hash, &tally->hits);
  }
  tally->candidates += ids.size();
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  transitions_ += ids.size();
  ++tally->nodes;
  tally->edges += ids.size();
  tally->memo += exp.nodes[node].memo;
  static obs::Histogram& fanout =
      obs::Registry::Global().histogram("graph.successors_per_snapshot");
  fanout.Record(ids.size());
  successors_[sid] = std::move(ids);
}

void SnapshotGraph::Book(const MergeTally& tally, size_t bytes) const {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& encodes = registry.counter("graph.encode");
  static obs::Counter& intern_hits = registry.counter("graph.intern_hits");
  static obs::Counter& calls = registry.counter("graph.successor_calls");
  static obs::Counter& edges = registry.counter("graph.transitions");
  static obs::Counter& arena_bytes = registry.counter("graph.arena_bytes");
  encodes.Add(tally.candidates);
  intern_hits.Add(tally.hits);
  calls.Add(tally.nodes);
  edges.Add(tally.edges);
  arena_bytes.Add(store_.bytes() - bytes);
  CountMemo(tally.memo);
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Successors(
    SnapshotId sid) {
  if (!successors_[sid].has_value()) {
    Expansion& exp = expansions_[0];
    exp.Clear();
    WSV_RETURN_IF_ERROR(Expand(sid, lanes_[0], &exp));
    const size_t bytes = store_.bytes();
    MergeTally tally;
    size_t begin = 0;
    size_t fresh = 0;
    Merge(sid, exp, 0, &begin, &fresh, &tally);
    Book(tally, bytes);
  }
  return &*successors_[sid];
}

Result<bool> SnapshotGraph::ExploreAll(size_t max_snapshots,
                                       RunControl* control, ThreadPool* pool,
                                       size_t lanes) {
  obs::PhaseTimer phase("graph_expand");
  const size_t helpers = lanes > 1 ? lanes - 1 : 0;
  if (lanes_.size() <= helpers) lanes_.resize(helpers + 1);
  Result<bool> complete =
      ExploreBatches(max_snapshots, control, pool, helpers);
  // Helper lanes are done; a complete graph needs no lane at all, while a
  // partial one keeps lane 0's memos for lazy expansion.
  if (complete.ok() && *complete) {
    lanes_.clear();
    expansions_.clear();
  }
  lanes_.resize(1);
  expansions_.resize(1);
  return complete;
}

Result<bool> SnapshotGraph::ExploreBatches(size_t max_snapshots,
                                           RunControl* control,
                                           ThreadPool* pool, size_t helpers) {
  WSV_RETURN_IF_ERROR(Initials().status());
  // BFS expands snapshots in id order (ids are handed out in discovery
  // order), a batch of the next unexpanded ids at a time: the rest of the
  // current level, capped so the candidates held for the merge stay small.
  // Where a batch ends changes only which candidates the merge finds
  // already interned, never an id or a counter.
  constexpr size_t kBatchPerLane = 256;
  for (size_t batch_begin = 0; batch_begin < size();) {
    const size_t n = std::min(size() - batch_begin,
                              kBatchPerLane * (helpers + 1));

    // Compute phase: expand the batch chunk by chunk, probing each
    // candidate against the graph as it stood before this batch. The graph
    // is not mutated here, so hits are final; only the misses' vectors are
    // kept for the sequential merge below, the only place ids are assigned.
    const size_t per_chunk = std::min<size_t>(64, n / ((helpers + 1) * 16) + 1);
    const size_t num_chunks = (n + per_chunk - 1) / per_chunk;
    if (expansions_.size() < num_chunks) expansions_.resize(num_chunks);
    std::atomic<bool> stopped{false};
    ThreadPool::ParallelChunks(
        pool, helpers, num_chunks, [&](size_t lane, size_t chunk) {
          Expansion& out = expansions_[chunk];
          out.Clear();
          if (control != nullptr) {
            if (lane == 0) obs::ProgressMeter::Global().MaybeBeat();
            out.status = control->Check();
            if (!out.status.ok()) {
              stopped.store(true, std::memory_order_relaxed);
              return;
            }
          }
          const size_t end = std::min(n, (chunk + 1) * per_chunk);
          for (size_t p = chunk * per_chunk; p < end; ++p) {
            if (stopped.load(std::memory_order_relaxed)) return;
            out.status = Expand(static_cast<SnapshotId>(batch_begin + p),
                                lanes_[lane], &out);
            if (!out.status.ok()) return;
          }
        });
    if (stopped.load(std::memory_order_relaxed)) {
      for (size_t c = 0; c < num_chunks; ++c) {
        if (RunControl::IsStopStatus(expansions_[c].status)) {
          return expansions_[c].status;
        }
      }
    }

    // Merge pass (sequential): assign ids in exact BFS order, so ids,
    // counters, transitions, and the budget cut-off do not depend on how
    // the batch was chunked. Counters are booked once per batch.
    const size_t bytes = store_.bytes();
    MergeTally tally;
    size_t sid = batch_begin;
    for (size_t c = 0; c < num_chunks; ++c) {
      Expansion& exp = expansions_[c];
      size_t begin = 0;
      size_t fresh = 0;
      for (size_t node = 0; node < exp.nodes.size(); ++node) {
        Merge(static_cast<SnapshotId>(sid++), exp, node, &begin, &fresh,
              &tally);
        if (size() > max_snapshots) {
          Book(tally, bytes);
          return false;
        }
      }
      if (!exp.status.ok()) {
        Book(tally, bytes);
        return exp.status;
      }
    }
    Book(tally, bytes);
    batch_begin += n;

    obs::ProgressMeter::Global().MaybeBeat();
    if (control != nullptr) WSV_RETURN_IF_ERROR(control->Check());
  }
  fully_explored_ = true;
  return true;
}

runtime::Snapshot SnapshotGraph::snapshot(SnapshotId sid) const {
  std::vector<uint32_t> words;
  return codec_.Decode(store_.Span(sid, &words));
}

fo::MapStructure SnapshotGraph::Structure(SnapshotId sid) const {
  return Structure(sid, *symbols_);
}

fo::MapStructure SnapshotGraph::Structure(
    SnapshotId sid, const runtime::PropertySymbolTable& symbols) const {
  return runtime::BuildPropertyStructure(generator_->composition(), symbols,
                                         generator_->databases(),
                                         snapshot(sid), generator_->domain());
}

LeafCache::LeafCache(SnapshotGraph* graph, std::vector<fo::FormulaPtr> leaves,
                     const Interner* interner)
    : graph_(graph),
      leaves_(std::move(leaves)),
      evaluator_(interner),
      memos_(leaves_.size()) {
  const runtime::PropertySymbolTable& symbols = graph_->property_symbols();
  std::vector<const runtime::PropertySymbol*> named;
  leaf_vars_.reserve(leaves_.size());
  for (size_t i = 0; i < leaves_.size(); ++i) {
    auto frees = leaves_[i]->FreeVariables();
    leaf_vars_.emplace_back(frees.begin(), frees.end());  // sets are sorted
    // A name the structure does not bind reads nothing; evaluation reports
    // it (the same error at every snapshot).
    std::vector<runtime::SnapshotPart>& parts = memos_[i].parts;
    for (const std::string& name : leaves_[i]->RelationNames()) {
      const runtime::PropertySymbol* symbol =
          runtime::FindPropertySymbol(symbols, name);
      if (symbol == nullptr) continue;
      named.push_back(symbol);
      if (symbol->part.kind != runtime::SnapshotPart::Kind::kDatabase) {
        parts.push_back(symbol->part);
      }
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  }
  // The table is sorted by name, so entry order is name order.
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
  for (const runtime::PropertySymbol* symbol : named) {
    symbols_.push_back(*symbol);
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

Result<const fo::ValuationSet* const*> LeafCache::GetAll(SnapshotId sid) {
  const size_t first = static_cast<size_t>(sid) * leaves_.size();
  if (first + leaves_.size() > cells_.size()) {
    cells_.resize(first + leaves_.size(), nullptr);
  }
  if (!leaves_.empty() && cells_[first] == nullptr) {
    obs::PhaseTimer phase("leaf_eval");
    WSV_RETURN_IF_ERROR(SealBatch(&sid, 1, nullptr, 1));
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
  std::vector<std::vector<uint32_t>> spans(helpers + 1);
  ThreadPool::ParallelChunks(
      pool, helpers, num_chunks, [&](size_t lane, size_t chunk) {
        runtime::FlatLayout& layout = layouts[lane];
        std::vector<uint32_t>& words = chunk_words[chunk];
        const size_t end = std::min(count, (chunk + 1) * kPerChunk);
        for (size_t p = chunk * kPerChunk; p < end; ++p) {
          const runtime::FlatSnapshot flat =
              graph_->store().Span(sids[p], &spans[lane]);
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
            graph_->Structure(sids[todos[groups[g]].pos], symbols_);
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

int8_t LeafCache::AppendSignature(size_t leaf, const data::Tuple& row,
                                  std::string* out) const {
  bool any_in = false;
  bool any_out = false;
  uint8_t bits = 0;
  size_t used = 0;
  for (const std::unique_ptr<fo::ValuationSet>& sat : memos_[leaf].results) {
    const bool in = sat->rows().Contains(row);
    any_in = any_in || in;
    any_out = any_out || !in;
    bits = static_cast<uint8_t>((bits << 1) | (in ? 1 : 0));
    if (++used == 8) {
      out->push_back(static_cast<char>(bits));
      bits = 0;
      used = 0;
    }
  }
  if (used > 0) out->push_back(static_cast<char>(bits));
  return !any_in ? 0 : !any_out ? 1 : -1;
}

}  // namespace wsv::verifier
