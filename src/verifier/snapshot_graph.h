#ifndef WSVERIFY_VERIFIER_SNAPSHOT_GRAPH_H_
#define WSVERIFY_VERIFIER_SNAPSHOT_GRAPH_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_hash.h"
#include "common/interner.h"
#include "common/run_control.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fo/eval.h"
#include "fo/structure.h"
#include "obs/metrics.h"
#include "runtime/flat_snapshot.h"
#include "runtime/snapshot_view.h"
#include "runtime/transition.h"
#include "verifier/flat_expansion.h"
#include "verifier/snapshot_store.h"

namespace wsv::verifier {

/// The composition's configuration graph for one database choice, explored
/// lazily and shared across all property instances (valuations of the
/// universal closure): the expensive successor computation and the
/// per-snapshot property-evaluation structures are paid once, while each
/// product search only re-evaluates its own propositions on the cached
/// structures.
///
/// Snapshots are normalized: the mover tag and received/sent event flags do
/// not influence successor computation, so unless `keep_mover` /
/// `keep_flags` is set (because some proposition observes them), snapshots
/// differing only there are collapsed.
///
/// Interned snapshots are part vectors in a SnapshotStore: a few words of
/// header and section ids each, the sections interned once per graph.
/// Expansion runs on the vectors (FlatExpander): a successor is the
/// parent's vector with the changed section ids replaced, probed against
/// the store read-only. Whatever reads a snapshot's words (memo and
/// footprint keys, property structures, witnesses) rebuilds its flat
/// encoding from the vector, and a Snapshot object is only decoded when a
/// witness is rendered or a property structure is built. ExploreAll
/// expands the BFS frontier a batch at a time, fanned out over a borrowed
/// ThreadPool when one is given; ids are assigned by an ordered per-batch
/// merge, so the id sequence (and every derived witness and statistic) is
/// the same at any job count.
class SnapshotGraph {
 public:
  /// `symbols` is the composition's property symbol table, shared by every
  /// graph of a run; null builds one for this graph.
  SnapshotGraph(
      const runtime::TransitionGenerator* generator,
      SnapshotNormalization normalization,
      std::shared_ptr<const runtime::PropertySymbolTable> symbols = nullptr);

  SnapshotGraph(const SnapshotGraph&) = delete;
  SnapshotGraph& operator=(const SnapshotGraph&) = delete;

  const runtime::TransitionGenerator& generator() const { return *generator_; }

  /// Ids of the initial snapshots (Definition 2.6).
  Result<const std::vector<SnapshotId>*> Initials();

  /// Successor snapshot ids (deduplicated), computed on first use.
  Result<const std::vector<SnapshotId>*> Successors(SnapshotId sid);

  /// The interned snapshots; store().Span rebuilds a snapshot's canonical
  /// flat encoding.
  const SnapshotStore& store() const { return store_; }

  const runtime::FlatSnapshotCodec& codec() const { return codec_; }

  /// The symbols Structure binds (runtime::PropertySymbols).
  const runtime::PropertySymbolTable& property_symbols() const {
    return *symbols_;
  }

  /// Decodes a snapshot into a fresh object (cold path — witness rendering
  /// and debugging; the hot paths work on the vectors and spans directly).
  runtime::Snapshot snapshot(SnapshotId sid) const;

  /// Builds the property-evaluation structure of a snapshot (transient —
  /// structures copy every relation, so they are never cached; LeafCache
  /// builds one only for a snapshot that brings a new footprint).
  /// Thread-safe: decodes into a local scratch snapshot.
  fo::MapStructure Structure(SnapshotId sid) const;

  /// As above, binding only `symbols` (a subset of property_symbols()):
  /// a formula that names no other symbol evaluates the same on it.
  fo::MapStructure Structure(SnapshotId sid,
                             const runtime::PropertySymbolTable& symbols) const;

  size_t size() const { return store_.size(); }
  size_t transitions_computed() const { return transitions_; }

  /// Bytes of the interned snapshots: their vectors and section words.
  size_t arena_bytes() const { return store_.bytes(); }

  /// Exhaustively explores the reachable configuration graph (BFS), up to
  /// `max_snapshots`. Returns true iff exploration completed; on false the
  /// graph is partial and callers must fall back to on-the-fly search
  /// semantics (bounded verdicts). `control` (optional) is polled every 64
  /// expansions at most; a stop aborts with its stop status.
  ///
  /// The BFS runs in batches of the frontier (a level, capped at 1024
  /// snapshots per lane). Each batch's successor computation is fanned out
  /// over the calling thread plus up to `lanes - 1` workers of `pool`
  /// (none when `pool` is null; see ThreadPool::ParallelChunks); the
  /// sequential per-batch merge then interns in BFS order, so ids,
  /// counters, and the budget cut-off point do not depend on the lane
  /// count.
  Result<bool> ExploreAll(size_t max_snapshots, RunControl* control = nullptr,
                          ThreadPool* pool = nullptr, size_t lanes = 1);

  /// True after a successful ExploreAll.
  bool fully_explored() const { return fully_explored_; }

 private:
  /// The expansions of consecutive nodes by one lane, in node order: node
  /// i's candidates end at candidates.ids[nodes[i].end]. A BFS batch keeps
  /// one per chunk, reused batch after batch so the candidate buffers are
  /// allocated once per graph.
  struct Expansion {
    struct Node {
      size_t end;
      MemoCounts memo;
    };
    std::vector<Node> nodes;
    Candidates candidates;
    /// Set when the chunk ended before its last node: the node's error or
    /// a stop.
    Status status = Status::Ok();

    void Clear();
  };

  /// Counters and the fan-out histogram of merged nodes, booked into the
  /// registry once per batch, so the lanes of a sweep do not contend on
  /// them per snapshot.
  struct MergeTally {
    size_t nodes = 0;
    size_t candidates = 0;
    size_t hits = 0;
    size_t snapshots = 0;
    size_t edges = 0;
    MemoCounts memo;
    obs::Histogram::Batch fanout;
  };

  /// Interns a vector: returns the existing id (counting it in
  /// tally->hits) or adds the vector under a fresh id (counting it in
  /// tally->snapshots).
  SnapshotId Intern(const uint32_t* vec, size_t hash, MergeTally* tally);

  /// Expands `sid` on `lane` and appends it to `out`, probing candidates
  /// against the graph as it stands. Reads the graph only, so lanes may
  /// expand concurrently while nothing is interned.
  Status Expand(SnapshotId sid, FlatExpander::Lane& lane,
                Expansion* out) const;

  /// Interns node `node` of `exp` (its candidates start at `*begin` and
  /// its fresh vectors at `*fresh`, both advanced past them) and caches the
  /// result as the successors of `sid`.
  void Merge(SnapshotId sid, Expansion& exp, size_t node, size_t* begin,
             size_t* fresh, MergeTally* tally);

  /// Books `tally` and the store's growth since `bytes` in the registry.
  void Book(const MergeTally& tally, size_t bytes) const;

  /// The BFS of ExploreAll, one batch at a time, over `helpers` pool
  /// workers besides the caller.
  Result<bool> ExploreBatches(size_t max_snapshots, RunControl* control,
                              ThreadPool* pool, size_t helpers);

  const runtime::TransitionGenerator* generator_;
  std::shared_ptr<const runtime::PropertySymbolTable> symbols_;
  runtime::FlatSnapshotCodec codec_;
  FlatExpander expander_;

  SnapshotStore store_;

  /// Expansion lanes and per-chunk expansions (lane 0 and expansion 0
  /// also serve lazy Successors calls). A finished exploration drops them:
  /// every successor list is then cached.
  std::vector<FlatExpander::Lane> lanes_;
  std::vector<Expansion> expansions_;

  std::vector<std::optional<std::vector<SnapshotId>>> successors_;
  std::optional<std::vector<SnapshotId>> initials_;
  size_t transitions_ = 0;
  bool fully_explored_ = false;
};

/// Caches, per snapshot and per leaf formula, the set of satisfying
/// assignments of the leaf's free variables. Evaluated relationally once —
/// every property instance (closure valuation) then answers "does this leaf
/// hold under my valuation?" with a tuple lookup.
///
/// A leaf's answer depends only on the relations its atoms name (the
/// graph's database and domain are fixed), so the cache evaluates each leaf
/// once per distinct *footprint*: the exact contents of those relations,
/// sliced from the snapshot's rebuilt flat encoding. Footprints are hashed
/// for lookup but always compared word for word. Snapshots with equal
/// footprints share one ValuationSet, so a cell is a pointer into the
/// leaf's memo rather than a copy.
///
/// After a complete exploration, SealAndPopulate evaluates every snapshot
/// up front (optionally in parallel); GetAll is then a lock-free read, safe
/// to call concurrently from many product searches.
class LeafCache {
 public:
  /// `graph` must outlive the cache; `interner` resolves leaf constants.
  LeafCache(SnapshotGraph* graph, std::vector<fo::FormulaPtr> leaves,
            const Interner* interner);

  const std::vector<fo::FormulaPtr>& leaves() const { return leaves_; }

  /// Sorted free variables of leaf `leaf` (the column order of its
  /// ValuationSets).
  const std::vector<std::string>& LeafVariables(size_t leaf) const {
    return leaf_vars_[leaf];
  }

  /// The satisfying assignments of every leaf at `sid`, as an array indexed
  /// by leaf, with one hit/miss account per call. The array stays valid
  /// until a lazy GetAll grows the cache; after SealAndPopulate it never
  /// moves.
  Result<const fo::ValuationSet* const*> GetAll(SnapshotId sid);

  /// Evaluates every leaf on every snapshot of the (fully explored) graph:
  /// footprints are computed in parallel over `pool` (see
  /// ThreadPool::ParallelChunks; serial when pool is null or lanes <= 1),
  /// deduplicated per leaf in snapshot-id order, and each new footprint is
  /// evaluated once, again in parallel. Afterwards every GetAll is a hit and
  /// touches no mutable state, so concurrent product searches can read the
  /// cache without locks. Results and counters are identical at every lane
  /// count and to the lazy path on a complete graph (one miss per
  /// snapshot). On error, reports the lowest-snapshot-id failure.
  Status SealAndPopulate(ThreadPool* pool = nullptr, size_t lanes = 1);

  /// GetAll() calls answered from an already-evaluated snapshot...
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// ...versus snapshots whose leaves had to be looked up or evaluated.
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Relational evaluations run: one per new (leaf, footprint)...
  size_t leaf_evals() const { return leaf_evals_; }
  /// ...versus cells served from the memo. The two always sum to
  /// misses() * leaves().size().
  size_t footprint_hits() const { return footprint_hits_; }

  /// Distinct footprints seen so far for leaf `leaf`.
  size_t footprints(size_t leaf) const { return memos_[leaf].size(); }

  /// The leaf's result on each distinct footprint: every cell of the leaf
  /// points at one of them. All are non-null after SealAndPopulate.
  const std::vector<std::unique_ptr<fo::ValuationSet>>& FootprintResults(
      size_t leaf) const {
    return memos_[leaf].results;
  }

  /// Whether leaf `leaf` reads no snapshot part, only the database and the
  /// domain, which are fixed for the graph: it then has one footprint, and
  /// its one result holds at every snapshot.
  bool ReadsNoPart(size_t leaf) const { return memos_[leaf].parts.empty(); }

  /// Appends the signature of `row` (an assignment of leaf `leaf`'s
  /// variables, in LeafVariables order) to `*out`: one bit per footprint
  /// result, set iff the row is in it, packed eight to a byte. Returns the
  /// truth the bits fix: 1 if the row is in every result, 0 if it is in
  /// none (or there is no result), -1 if the bits differ. Once every
  /// snapshot is evaluated, each cell is one of the results, so a fixed
  /// truth is the leaf's truth at every snapshot of the graph.
  int8_t AppendSignature(size_t leaf, const data::Tuple& row,
                         std::string* out) const;

 private:
  /// One leaf's footprint memo: footprint keys with one result slot each.
  struct Memo {
    /// The snapshot parts the leaf reads, sorted (database parts dropped:
    /// they are fixed for the graph).
    std::vector<runtime::SnapshotPart> parts;
    WordKeySet keys;
    /// results[i]: the leaf on footprint i; null until evaluated.
    std::vector<std::unique_ptr<fo::ValuationSet>> results;

    size_t size() const { return results.size(); }
    uint32_t Find(const uint32_t* key, size_t count, size_t hash) const {
      return keys.Find(key, count, hash);
    }
    /// Adds the key (known absent) with an empty result slot.
    uint32_t Add(const uint32_t* key, size_t count, size_t hash) {
      results.emplace_back();
      return keys.Add(key, count, hash);
    }
  };

  /// Appends leaf `leaf`'s footprint key of `flat` (located by `layout`).
  void AppendKey(size_t leaf, runtime::FlatSnapshot flat,
                 const runtime::FlatLayout& layout,
                 std::vector<uint32_t>* out) const;

  /// Whether every cell of `sid` is filled.
  bool Evaluated(SnapshotId sid) const;

  /// Fills the cells of one batch of unevaluated snapshots, in id order,
  /// through the memo: SealAndPopulate's step, and GetAll's on a miss.
  Status SealBatch(const SnapshotId* sids, size_t count, ThreadPool* pool,
                   size_t lanes);

  /// Books `snapshots` newly evaluated snapshots, `evals` of whose cells
  /// needed a fresh evaluation.
  void CountMisses(size_t snapshots, size_t evals);

  SnapshotGraph* graph_;
  std::vector<fo::FormulaPtr> leaves_;
  /// The property symbols some leaf names: all a leaf evaluation reads.
  runtime::PropertySymbolTable symbols_;
  std::vector<std::vector<std::string>> leaf_vars_;
  fo::Evaluator evaluator_;
  std::vector<Memo> memos_;
  /// cells_[sid * leaves + leaf], null until the snapshot is evaluated.
  std::vector<const fo::ValuationSet*> cells_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  size_t leaf_evals_ = 0;
  size_t footprint_hits_ = 0;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_SNAPSHOT_GRAPH_H_
