#ifndef WSVERIFY_VERIFIER_SNAPSHOT_GRAPH_H_
#define WSVERIFY_VERIFIER_SNAPSHOT_GRAPH_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/interner.h"
#include "common/run_control.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fo/eval.h"
#include "fo/structure.h"
#include "runtime/flat_snapshot.h"
#include "runtime/transition.h"

namespace wsv::verifier {

using SnapshotId = uint32_t;

/// Which parts of a snapshot must be kept distinct. Everything here is
/// bisimulation-invariant for successor computation — the mover tag, event
/// flags, action relations (pure outputs; Definition 2.1 forbids reading
/// them in rule bodies) and previous-input relations no rule consults — so
/// any part not observed by a proposition is normalized away, collapsing
/// bisimilar snapshots.
struct SnapshotNormalization {
  bool keep_mover = true;
  bool keep_flags = true;
  bool keep_actions = true;
  /// keep_prev[peer][prev-relation index within the peer's
  /// prev_input_schema]; empty = keep everything.
  std::vector<std::vector<bool>> keep_prev;
};

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
/// Interned snapshots are stored as canonical flat encodings
/// (runtime::FlatSnapshot): one contiguous arena-backed uint32 span per
/// snapshot, deduplicated through an open-addressing id table keyed by the
/// span hash. Equality on the intern path is a single memcmp and the
/// Snapshot object graph is only rebuilt (into reusable scratch) when a
/// node is expanded or a witness is rendered. ExploreAll can run the
/// successor computation level-parallel on a borrowed ThreadPool; ids are
/// assigned by an ordered per-level merge, so the id sequence (and every
/// derived witness and statistic) is bit-for-bit identical to the serial
/// exploration at any job count.
class SnapshotGraph {
 public:
  SnapshotGraph(const runtime::TransitionGenerator* generator,
                SnapshotNormalization normalization);

  SnapshotGraph(const SnapshotGraph&) = delete;
  SnapshotGraph& operator=(const SnapshotGraph&) = delete;

  const runtime::TransitionGenerator& generator() const { return *generator_; }

  /// Ids of the initial snapshots (Definition 2.6).
  Result<const std::vector<SnapshotId>*> Initials();

  /// Successor snapshot ids (deduplicated), computed on first use.
  Result<const std::vector<SnapshotId>*> Successors(SnapshotId sid);

  /// The canonical flat encoding of a snapshot (stable for the graph's
  /// lifetime; spans live in the graph's arena).
  runtime::FlatSnapshot flat(SnapshotId sid) const { return flats_[sid]; }

  const runtime::FlatSnapshotCodec& codec() const { return codec_; }

  /// Decodes a snapshot into a fresh object (cold path — witness rendering
  /// and debugging; the hot paths work on the flat encodings directly).
  runtime::Snapshot snapshot(SnapshotId sid) const {
    return codec_.Decode(flats_[sid]);
  }

  /// Builds the property-evaluation structure of a snapshot (transient —
  /// structures copy every relation, so they are never cached; LeafCache
  /// builds one only for a snapshot that brings a new footprint).
  /// Thread-safe: decodes into a local scratch snapshot.
  fo::MapStructure Structure(SnapshotId sid) const;

  size_t size() const { return flats_.size(); }
  size_t transitions_computed() const { return transitions_; }

  /// Bytes of canonical snapshot encodings held in the persistent arena.
  size_t arena_bytes() const { return arena_.used_bytes(); }

  /// Exhaustively explores the reachable configuration graph (BFS), up to
  /// `max_snapshots`. Returns true iff exploration completed; on false the
  /// graph is partial and callers must fall back to on-the-fly search
  /// semantics (bounded verdicts). `control` (optional) is polled every ~1k
  /// expansions; a stop aborts with its stop status.
  ///
  /// With a non-null `pool` and `lanes > 1`, each BFS level's successor
  /// computation is fanned out over the calling thread plus up to
  /// `lanes - 1` pool workers (see ThreadPool::ParallelChunks); the
  /// sequential per-level merge then interns in frontier order, so ids,
  /// counters, and the budget cut-off point are identical to a serial run.
  Result<bool> ExploreAll(size_t max_snapshots, RunControl* control = nullptr,
                          ThreadPool* pool = nullptr, size_t lanes = 1);

  /// True after a successful ExploreAll.
  bool fully_explored() const { return fully_explored_; }

 private:
  /// Applies the normalization in place (see SnapshotNormalization).
  void Normalize(runtime::Snapshot* snap) const;

  /// Normalizes and interns `snap` (via its flat encoding), reusing the
  /// member encode buffer. `snap` is left in its normalized state.
  SnapshotId Intern(runtime::Snapshot& snap);

  /// Interns an already-encoded span: returns the existing id or copies the
  /// span into the persistent arena under a fresh id.
  SnapshotId InternSpan(const uint32_t* words, uint32_t count, size_t hash);

  Result<bool> ExploreAllSerial(size_t max_snapshots, RunControl* control);
  Result<bool> ExploreAllParallel(size_t max_snapshots, RunControl* control,
                                  ThreadPool* pool, size_t lanes);

  const runtime::TransitionGenerator* generator_;
  SnapshotNormalization normalization_;
  runtime::FlatSnapshotCodec codec_;

  /// Canonical encodings: flats_[id] points into arena_; hashes_[id] is its
  /// span hash, kept so table growth never rehashes content.
  Arena arena_;
  std::vector<runtime::FlatSnapshot> flats_;
  std::vector<size_t> hashes_;
  FlatIdSet intern_;

  /// Serial-path scratch, reused across every intern/expansion.
  runtime::Snapshot decode_scratch_;
  std::vector<uint32_t> encode_buf_;

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
/// sliced straight from the snapshot's flat encoding. Footprints are hashed
/// for lookup but always compared word for word. Snapshots with equal
/// footprints share one ValuationSet, so a cell is a pointer into the
/// leaf's memo rather than a copy.
///
/// After a complete exploration, SealAndPopulate evaluates every snapshot
/// up front (optionally in parallel); Get is then a lock-free read, safe to
/// call concurrently from many product searches.
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

  /// Satisfying assignments of leaf `leaf` at snapshot `sid`.
  Result<const fo::ValuationSet*> Get(SnapshotId sid, size_t leaf);

  /// All leaves of `sid` at once, as an array indexed by leaf. One hit/miss
  /// account per call instead of per leaf — the product search reads
  /// every leaf of a snapshot anyway when it computes a valuation, and the
  /// per-leaf accounting (two atomic increments each) dominates the
  /// sealed-cache lookup. The array stays valid until a lazy Get grows
  /// the cache; after SealAndPopulate it never moves.
  Result<const fo::ValuationSet* const*> GetAll(SnapshotId sid);

  /// Evaluates every leaf on every snapshot of the (fully explored) graph:
  /// footprints are computed in parallel over `pool` (see
  /// ThreadPool::ParallelChunks; serial when pool is null or lanes <= 1),
  /// deduplicated per leaf in snapshot-id order, and each new footprint is
  /// evaluated once, again in parallel. Afterwards every Get is a hit and
  /// touches no mutable state, so concurrent product searches can read the
  /// cache without locks. Results and counters are identical at every lane
  /// count and to the lazy path on a complete graph (one miss per
  /// snapshot). On error, reports the lowest-snapshot-id failure.
  Status SealAndPopulate(ThreadPool* pool = nullptr, size_t lanes = 1);

  /// Union of the satisfying assignments of leaf `leaf` over *all* reachable
  /// snapshots; requires graph->fully_explored(). A valuation row absent
  /// from this union makes the proposition constant-false along every run —
  /// the engine then discharges the instance by automaton emptiness alone.
  Result<const data::Relation*> EverSatisfied(size_t leaf);

  /// Intersection over all reachable snapshots: rows satisfied *everywhere*
  /// make the proposition constant-true along every run.
  Result<const data::Relation*> AlwaysSatisfied(size_t leaf);

  /// Get() calls answered from an already-evaluated snapshot...
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

 private:
  /// One leaf's footprint memo. Keys are interned like snapshot spans:
  /// key i occupies words[begin[i], begin[i + 1]).
  struct Memo {
    /// The snapshot parts the leaf reads, sorted (database parts dropped:
    /// they are fixed for the graph).
    std::vector<runtime::SnapshotPart> parts;
    std::vector<uint32_t> words;
    std::vector<uint32_t> begin{0};
    FlatIdSet index;
    /// results[i]: the leaf on footprint i; null until evaluated.
    std::vector<std::unique_ptr<fo::ValuationSet>> results;

    size_t size() const { return results.size(); }
    /// Id of the key `key[0, count)` with hash `hash`, or FlatIdSet::kEmpty.
    uint32_t Find(const uint32_t* key, size_t count, size_t hash) const;
    /// Adds the key (known absent) and returns its id.
    uint32_t Add(const uint32_t* key, size_t count, size_t hash);
  };

  /// Appends leaf `leaf`'s footprint key of `flat` (located by `layout`).
  void AppendKey(size_t leaf, runtime::FlatSnapshot flat,
                 const runtime::FlatLayout& layout,
                 std::vector<uint32_t>* out) const;

  /// Whether every cell of `sid` is filled.
  bool Evaluated(SnapshotId sid) const;

  /// The lazy miss path: fills the cells of `sid` (which must exist)
  /// through the memo, evaluating only footprints without a result.
  Status EvaluateSnapshot(SnapshotId sid);

  /// SealAndPopulate on one batch of unevaluated snapshots, in id order.
  Status SealBatch(const SnapshotId* sids, size_t count, ThreadPool* pool,
                   size_t lanes);

  /// Books `snapshots` newly evaluated snapshots, `evals` of whose cells
  /// needed a fresh evaluation.
  void CountMisses(size_t snapshots, size_t evals);

  /// Evaluates every pending snapshot (a serial seal) unless all are done.
  Status EnsureComplete();

  SnapshotGraph* graph_;
  std::vector<fo::FormulaPtr> leaves_;
  std::vector<std::vector<std::string>> leaf_vars_;
  fo::Evaluator evaluator_;
  std::vector<Memo> memos_;
  /// cells_[sid * leaves + leaf], null until the snapshot is evaluated.
  std::vector<const fo::ValuationSet*> cells_;
  size_t evaluated_ = 0;
  std::vector<std::optional<data::Relation>> ever_;
  std::vector<std::optional<data::Relation>> always_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  size_t leaf_evals_ = 0;
  size_t footprint_hits_ = 0;
  /// Lazy-path scratch.
  runtime::FlatLayout layout_;
  std::vector<uint32_t> key_;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_SNAPSHOT_GRAPH_H_
