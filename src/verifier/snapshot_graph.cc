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

SnapshotGraph::SnapshotGraph(const runtime::TransitionGenerator* generator,
                             SnapshotNormalization normalization)
    : generator_(generator),
      normalization_(std::move(normalization)),
      codec_(&generator->composition()) {}

void SnapshotGraph::Normalize(runtime::Snapshot* snap) const {
  if (!normalization_.keep_mover) snap->mover = runtime::kNoMover;
  if (!normalization_.keep_flags) {
    snap->received.assign(snap->received.size(), false);
    snap->sent.assign(snap->sent.size(), false);
  }
  if (!normalization_.keep_actions) {
    for (runtime::PeerConfig& cfg : snap->peers) cfg.action.Clear();
  }
  if (!normalization_.keep_prev.empty()) {
    for (size_t p = 0; p < snap->peers.size(); ++p) {
      const std::vector<bool>& keep = normalization_.keep_prev[p];
      for (size_t r = 0; r < keep.size(); ++r) {
        if (!keep[r]) snap->peers[p].prev.relation(r).Clear();
      }
    }
  }
}

SnapshotId SnapshotGraph::InternSpan(const uint32_t* words, uint32_t count,
                                     size_t hash) {
  SnapshotId found = intern_.Find(hash, [&](uint32_t id) {
    return flats_[id] == runtime::FlatSnapshot{words, count};
  });
  if (found != FlatIdSet::kEmpty) {
    static obs::Counter& hits =
        obs::Registry::Global().counter("graph.intern_hits");
    hits.Add(1);
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

SnapshotId SnapshotGraph::Intern(runtime::Snapshot& snap) {
  Normalize(&snap);
  codec_.Encode(snap, &encode_buf_);
  static obs::Counter& encodes =
      obs::Registry::Global().counter("graph.encode");
  encodes.Add(1);
  size_t hash =
      runtime::HashFlatSnapshot(encode_buf_.data(), encode_buf_.size());
  return InternSpan(encode_buf_.data(),
                    static_cast<uint32_t>(encode_buf_.size()), hash);
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Initials() {
  if (!initials_.has_value()) {
    WSV_ASSIGN_OR_RETURN(std::vector<runtime::Snapshot> snaps,
                         generator_->InitialSnapshots());
    std::vector<SnapshotId> ids;
    for (runtime::Snapshot& s : snaps) ids.push_back(Intern(s));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    initials_ = std::move(ids);
  }
  return &*initials_;
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Successors(
    SnapshotId sid) {
  if (!successors_[sid].has_value()) {
    // Decode into the reusable scratch snapshot: the flat span is
    // arena-stable, so unlike the old object store no defensive copy is
    // needed before Intern below grows the graph.
    codec_.Decode(flats_[sid], &decode_scratch_);
    WSV_ASSIGN_OR_RETURN(std::vector<runtime::Snapshot> succ,
                         generator_->Successors(decode_scratch_));
    std::vector<SnapshotId> ids;
    ids.reserve(succ.size());
    for (runtime::Snapshot& s : succ) ids.push_back(Intern(s));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    transitions_ += ids.size();
    obs::Registry& registry = obs::Registry::Global();
    static obs::Counter& calls = registry.counter("graph.successor_calls");
    static obs::Counter& edges = registry.counter("graph.transitions");
    static obs::Histogram& fanout =
        registry.histogram("graph.successors_per_snapshot");
    calls.Add(1);
    edges.Add(ids.size());
    fanout.Record(ids.size());
    successors_[sid] = std::move(ids);
  }
  return &*successors_[sid];
}

Result<bool> SnapshotGraph::ExploreAll(size_t max_snapshots,
                                       RunControl* control, ThreadPool* pool,
                                       size_t lanes) {
  obs::PhaseTimer phase("graph_expand");
  if (pool == nullptr || lanes <= 1) {
    return ExploreAllSerial(max_snapshots, control);
  }
  return ExploreAllParallel(max_snapshots, control, pool, lanes);
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

namespace {

/// One frontier node's expansion, computed concurrently: its successors'
/// canonical encodings (spans into the expanding lane's scratch arena) with
/// their hashes, or the generator's error. The Snapshot objects themselves
/// are dropped inside the compute phase — only the flat spans survive to
/// the merge.
struct NodeExpansion {
  Status status = Status::Ok();
  std::vector<runtime::FlatSnapshot> flat;
  std::vector<size_t> hash;
};

/// Per-lane scratch reused across every frontier node the lane expands (and
/// across BFS levels): the decoded frontier snapshot, the encode buffer,
/// and the arena holding this level's candidate spans. Resetting the arena
/// per level recycles its chunks, so steady-state expansion allocates
/// nothing for the ~16x of candidates that end up duplicates.
struct LaneScratch {
  runtime::Snapshot snap;
  std::vector<uint32_t> encode;
  Arena arena;
};

}  // namespace

Result<bool> SnapshotGraph::ExploreAllParallel(size_t max_snapshots,
                                               RunControl* control,
                                               ThreadPool* pool,
                                               size_t lanes) {
  WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* inits, Initials());
  std::vector<SnapshotId> frontier(inits->begin(), inits->end());
  std::vector<LaneScratch> scratch(lanes);

  while (!frontier.empty()) {
    const size_t n = frontier.size();

    // Compute phase: expand every frontier node concurrently. The graph is
    // not mutated here — workers read stable flat spans, decode into their
    // lane scratch, and encode candidates into their lane arena; ids are
    // only assigned in the sequential merge below.
    std::vector<NodeExpansion> expansions(n);
    std::atomic<bool> stop_requested{false};
    obs::TimedMutex stop_mu{"graph.stop"};
    Status stop_status = Status::Ok();
    for (LaneScratch& s : scratch) s.arena.Reset();
    const size_t per_chunk =
        std::max<size_t>(1, std::min<size_t>(64, n / (lanes * 4) + 1));
    const size_t num_chunks = (n + per_chunk - 1) / per_chunk;
    ThreadPool::ParallelChunks(
        pool, lanes - 1, num_chunks, [&](size_t lane, size_t chunk) {
          LaneScratch& lane_scratch = scratch[lane];
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
            codec_.Decode(flats_[frontier[p]], &lane_scratch.snap);
            auto succ = generator_->Successors(lane_scratch.snap);
            if (!succ.ok()) {
              out.status = succ.status();
              continue;
            }
            out.flat.reserve(succ.value().size());
            out.hash.reserve(succ.value().size());
            for (runtime::Snapshot& s : succ.value()) {
              Normalize(&s);
              codec_.Encode(s, &lane_scratch.encode);
              const uint32_t* span = lane_scratch.arena.CopyWords(
                  lane_scratch.encode.data(), lane_scratch.encode.size());
              out.flat.push_back(runtime::FlatSnapshot{
                  span, static_cast<uint32_t>(lane_scratch.encode.size())});
              out.hash.push_back(runtime::HashFlatSnapshot(
                  lane_scratch.encode.data(), lane_scratch.encode.size()));
            }
          }
        });
    if (!stop_status.ok()) return stop_status;

    // Resolve pass (parallel): probe every candidate against the interned
    // set as it stood before this level. Hits are final (existing ids never
    // change); misses are re-probed during the merge, which is the only
    // place the table grows.
    size_t total = 0;
    for (const NodeExpansion& exp : expansions) total += exp.flat.size();
    struct Candidate {
      runtime::FlatSnapshot flat;
      size_t hash;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(total);
    for (NodeExpansion& exp : expansions) {
      for (size_t j = 0; j < exp.flat.size(); ++j) {
        candidates.push_back(Candidate{exp.flat[j], exp.hash[j]});
      }
    }
    static obs::Counter& encodes =
        obs::Registry::Global().counter("graph.encode");
    encodes.Add(total);
    std::vector<SnapshotId> resolved(total, FlatIdSet::kEmpty);
    const size_t resolve_chunk = 1024;
    const size_t resolve_chunks = (total + resolve_chunk - 1) / resolve_chunk;
    ThreadPool::ParallelChunks(
        pool, lanes - 1, resolve_chunks, [&](size_t, size_t chunk) {
          const size_t begin = chunk * resolve_chunk;
          const size_t end = std::min(total, begin + resolve_chunk);
          for (size_t g = begin; g < end; ++g) {
            resolved[g] = intern_.Find(candidates[g].hash, [&](uint32_t id) {
              return flats_[id] == candidates[g].flat;
            });
          }
        });

    // Merge pass (sequential): assign ids in exact frontier order — the
    // same order the serial BFS interns in — so ids, counters, transitions,
    // and the budget cut-off are bit-for-bit identical to a serial run.
    // Unresolved candidates re-probe the (now growing) table, which both
    // dedups within the level and copies each winner's span into the
    // persistent arena exactly once.
    obs::Registry& registry = obs::Registry::Global();
    static obs::Counter& intern_hits = registry.counter("graph.intern_hits");
    static obs::Counter& calls = registry.counter("graph.successor_calls");
    static obs::Counter& edges = registry.counter("graph.transitions");
    static obs::Histogram& fanout =
        registry.histogram("graph.successors_per_snapshot");
    std::vector<SnapshotId> next_frontier;
    const size_t before_level = flats_.size();
    for (size_t p = 0, g = 0; p < n; ++p) {
      NodeExpansion& exp = expansions[p];
      WSV_RETURN_IF_ERROR(exp.status);
      std::vector<SnapshotId> ids;
      ids.reserve(exp.flat.size());
      for (size_t j = 0; j < exp.flat.size(); ++j, ++g) {
        SnapshotId id = resolved[g];
        if (id != FlatIdSet::kEmpty) {
          intern_hits.Add(1);
        } else {
          id = InternSpan(candidates[g].flat.data, candidates[g].flat.size,
                          candidates[g].hash);
        }
        ids.push_back(id);
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      transitions_ += ids.size();
      calls.Add(1);
      edges.Add(ids.size());
      fanout.Record(ids.size());
      successors_[frontier[p]] = std::move(ids);
      if (flats_.size() > max_snapshots) return false;
    }
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

uint32_t LeafCache::Memo::Find(const uint32_t* key, size_t count,
                               size_t hash) const {
  return index.Find(hash, [&](uint32_t id) {
    return begin[id + 1] - begin[id] == count &&
           std::equal(key, key + count, words.data() + begin[id]);
  });
}

uint32_t LeafCache::Memo::Add(const uint32_t* key, size_t count,
                              size_t hash) {
  const uint32_t id = static_cast<uint32_t>(results.size());
  words.insert(words.end(), key, key + count);
  begin.push_back(static_cast<uint32_t>(words.size()));
  index.Insert(hash, id);
  results.emplace_back();
  return id;
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
