#ifndef WSVERIFY_VERIFIER_FLAT_EXPANSION_H_
#define WSVERIFY_VERIFIER_FLAT_EXPANSION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "runtime/flat_snapshot.h"
#include "runtime/transition.h"
#include "verifier/snapshot_store.h"

namespace wsv::verifier {

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

/// Memo traffic of some expansions: one move lookup per (node, peer), one
/// rule lookup per move rule of each move lookup that missed, one input
/// lookup per delivered peer successor, and one choice lookup per delivered
/// peer successor with two or more input choices and no unseen section;
/// evals are the lookups that missed and ran the rules (for choices: that
/// emitted each choice).
struct MemoCounts {
  size_t move_lookups = 0;
  size_t move_evals = 0;
  size_t rule_lookups = 0;
  size_t rule_evals = 0;
  size_t input_lookups = 0;
  size_t input_evals = 0;
  size_t choice_lookups = 0;
  size_t choice_evals = 0;

  MemoCounts& operator+=(const MemoCounts& o) {
    move_lookups += o.move_lookups;
    move_evals += o.move_evals;
    rule_lookups += o.rule_lookups;
    rule_evals += o.rule_evals;
    input_lookups += o.input_lookups;
    input_evals += o.input_evals;
    choice_lookups += o.choice_lookups;
    choice_evals += o.choice_evals;
    return *this;
  }
};

/// Computes a snapshot's successors on part vectors (SnapshotStore), with
/// the same result and order as normalizing each snapshot of
/// TransitionGenerator::Successors(Decode(span)) and encoding it.
///
/// A peer's move reads only its local view (runtime::LocalView) and writes
/// only its own configuration and the queues it uses (Definitions 2.4 and
/// 2.6). So the rules run once per distinct view: the move memo maps the
/// view's words, sliced from the parent's rebuilt span, to the encoded
/// move, and the input memo maps the part of the successor's view that
/// the options rules read to the encoded input choices. Under the move
/// memo, each move rule (runtime::MoveRules) reads only the view parts its
/// body names, its footprint: on a move miss the rule memo maps each rule's
/// footprint, sliced from the move key, to the rule's result block, and
/// only the rules that miss there are evaluated, on the view decoded from
/// the key. The move is then assembled on words from the key's relation
/// blocks and the rules' result blocks, as TransitionGenerator assembles
/// it on objects: each state relation is one merge of sorted blocks
/// (runtime::AppendStateUpdate), the lookback window shifts block
/// pointers, and the send alternatives copy result blocks or single
/// tuples. A move whose rules all hit builds no view and no relation.
/// Each successor is then the parent's vector with a new header, the
/// mover's state, input and tail section ids and the ids of the channels
/// it edits (consumed
/// in-queues dequeued, delivered messages appended). A section id is looked
/// up read-only in the store's part table, and the mover's section ids are
/// cached next to the move and input memo entries once found, so a
/// successor that is already interned costs one hash and one compare over
/// its vector. The input choices of a delivered successor are a function of
/// the input key, which its vector holds everywhere but in the mover's input
/// slot, so the choice memo maps that vector, slot left open, to the ids its
/// choices emitted: a hit costs one hash and one compare, not one per
/// choice. Environment moves replace the header and channel ids the same
/// way. No runtime::Snapshot is built; memo misses decode just the view
/// from its key. Errors are never memoized. Where a snapshot is a function
/// of its move key (one peer, no channels, mover and actions normalized
/// away), no two snapshots share a move key and the move memo is bypassed.
class FlatExpander {
 public:
  /// One lane's memos and scratch. Not thread-safe: each concurrent
  /// expansion needs its own lane. The memos cache part ids, so a lane
  /// serves one store.
  class Lane {
   public:
    Lane() = default;

   private:
    friend class FlatExpander;
    /// Keys with one encoded result each: result i is
    /// values[value_begin[i], value_begin[i + 1]).
    struct Memo {
      WordKeySet keys;
      std::vector<uint32_t> values;
      std::vector<uint32_t> value_begin{0};
    };
    /// A channel's change in one successor.
    struct ChannelEdit {
      bool dequeue = false;
      const uint32_t* append = nullptr;  // message block to enqueue
      bool sent = false;
      bool received = false;
    };

    /// A move rule whose footprint missed the rule memo: its key is
    /// rule_keys[begin, end).
    struct RuleMiss {
      uint32_t rule, begin, end;
      size_t hash;
    };
    /// A message of every send alternative: a send rule's result block on
    /// `channel`, whole, or (`pick`) one tuple of it per alternative.
    struct Send {
      uint32_t channel;
      const uint32_t* block;
      bool pick;
    };

    /// Delivered successors' emitted ids, keyed by the successor vector
    /// with the mover's input slot open: entry i is ids[begin[i],
    /// begin[i + 1]), one id per input choice in choice order, and its key
    /// is store.vector(ids[begin[i]]) outside that slot, so no key words are
    /// kept. Only entries whose every id is interned are stored.
    struct ChoiceMemo {
      FlatIdSet index;
      std::vector<SnapshotId> ids;
      std::vector<uint32_t> begin{0};
    };

    std::vector<Memo> moves;               // per peer
    std::vector<std::vector<Memo>> rules;  // per peer, per move rule
    std::vector<Memo> inputs;              // per peer
    std::vector<ChoiceMemo> choices;       // per peer
    runtime::FlatLayout layout;
    std::vector<uint32_t> key;
    std::vector<uint32_t> part_begin;  // per move part: its key offset
    std::vector<uint32_t> rule_keys;
    std::vector<RuleMiss> rule_misses;
    std::vector<bool> rule_missed;  // per move rule
    /// Per move rule: its result block's offset in its memo's values.
    std::vector<uint32_t> result_at;
    std::vector<const uint32_t*> prev;     // per prev relation, shifted
    std::vector<Send> sends;
    std::vector<uint32_t> picks;  // per send: the tuple it picks
    std::vector<uint32_t> input_key;  // a move's input-key prefix
    std::vector<uint32_t> span;  // the parent's rebuilt span
    std::vector<uint32_t> base;  // a move's successor vector before delivery
    std::vector<uint32_t> vec;   // the successor vector being emitted
    std::vector<uint32_t> part;  // a channel section being built
    std::vector<ChannelEdit> edits;
    std::vector<std::vector<ChannelEdit>> env_bases;
    /// One send alternative: (channel, message block) in out-queue order,
    /// and its delivery branches as bitmasks of delivered messages.
    std::vector<std::pair<uint32_t, const uint32_t*>> messages;
    std::vector<uint64_t> deliveries;
  };

  /// `generator` and `codec` must outlive the expander.
  FlatExpander(const runtime::TransitionGenerator* generator,
               const runtime::FlatSnapshotCodec* codec,
               SnapshotNormalization normalization);

  /// Appends every successor of snapshot `sid` of `store` to `out`,
  /// normalized, duplicates included, in TransitionGenerator::Successors
  /// order, each probed against the store. Adds the memo traffic to
  /// `counts`. On error `out` may hold a partial expansion.
  Status Expand(const SnapshotStore& store, SnapshotId sid, Lane* lane,
                Candidates* out, MemoCounts* counts) const;

 private:
  /// Header words of an encoded move (runtime::PeerMove on words): the
  /// word counts of its state, raw prev and normalized tail sections, its
  /// error-flag count, and the part ids of its state and tail sections
  /// (kEmpty until found in the part table). The sections follow in that
  /// order, then one error flag word per out-queue, then the send
  /// alternatives: [alternatives, per alternative: [messages, per message:
  /// channel, relation block]].
  static constexpr size_t kMoveHeader = 6;

  /// The move of peer `p` from `parent` (located in lane->layout): its
  /// encoded move, from the lane's memo or freshly assembled.
  Result<uint32_t*> Move(runtime::FlatSnapshot parent, size_t p, Lane* lane,
                         MemoCounts* counts) const;

  /// Sets lane->result_at to each move rule's result block for peer `p`'s
  /// move key in lane->key (and lane->part_begin to the key's parts): from
  /// the rule memo, its key sliced from the move key, or, for the rules
  /// that miss, evaluated on the decoded view and memoized.
  Status RuleResults(size_t p, Lane* lane, MemoCounts* counts) const;

  /// Appends peer `p`'s encoded move to `out`, assembled from the move
  /// key's relation blocks and the rules' result blocks (see RuleResults)
  /// as TransitionGenerator assembles a PeerMove, normalized.
  void AssembleMove(size_t p, Lane* lane, std::vector<uint32_t>* out) const;

  /// Encoded input choices of peer `p` for the input key in lane->key:
  /// [choices, per choice: [words, part id (kEmpty until found), input
  /// section]].
  Result<uint32_t*> InputChoices(size_t p, Lane* lane,
                                 MemoCounts* counts) const;

  /// Appends the successors of the delivered successor `lane->vec` (peer
  /// `p`'s input slot open; `unseen` if some section of it is unseen), one
  /// per encoded input choice of `choices` (see InputChoices), through the
  /// lane's choice memo.
  void EmitChoices(const SnapshotStore& store, size_t p,
                   uint32_t* choices, bool unseen, Lane* lane,
                   Candidates* out, MemoCounts* counts) const;

  /// The result memoized under `key`, or else `encode(out)`'s, which
  /// evaluates the view, appends the result's words to `out` and is
  /// counted in `evals`. A failed evaluation (which appends nothing) is not
  /// memoized. The result stays valid until the memo's next miss.
  template <typename Encode>
  static Result<uint32_t*> Memoized(Lane::Memo* memo,
                                    const std::vector<uint32_t>& key,
                                    size_t* evals, Encode encode);

  /// The parts of a peer's local view that a memo key holds, by index, in
  /// key order: state, input and prev relations as relation blocks, then
  /// in-queue heads as [empty flag, first-message block], then send-error
  /// flags as one word each.
  struct ViewSelection {
    std::vector<uint32_t> state, input, prev, heads, errors;
  };

  /// Rebuilds peer `p`'s local view from a key holding `selection`; parts
  /// outside it are empty.
  runtime::LocalView DecodeView(size_t p, const ViewSelection& selection,
                                const uint32_t* key) const;

  Status ExpandPeer(const SnapshotStore& store, const uint32_t* from,
                    runtime::FlatSnapshot parent, size_t p, Lane* lane,
                    Candidates* out, MemoCounts* counts) const;
  void ExpandEnv(const SnapshotStore& store, const uint32_t* from,
                 runtime::FlatSnapshot parent, Lane* lane,
                 Candidates* out) const;

  /// Writes the successor header to `out`: `mover_word`, then the parent's
  /// event words (`from` + 1) with received/sent taken from `edits`
  /// (cleared unless keep_flags) and, for a peer mover `p` >= 0, its
  /// send-error bits from `errors`.
  void WriteHeader(const uint32_t* from, uint32_t mover_word,
                   const Lane::ChannelEdit* edits, int p,
                   const uint32_t* errors, uint32_t* out) const;
  /// The part id of channel `c` of `parent` with `edit` applied.
  uint32_t ChannelPart(const SnapshotStore& store,
                       runtime::FlatSnapshot parent, size_t c,
                       const Lane::ChannelEdit& edit, Lane* lane,
                       Candidates* out) const;
  /// Appends an environment successor: the parent's vector with a new
  /// header and the edited channels.
  void EmitEnv(const SnapshotStore& store, const uint32_t* from,
               runtime::FlatSnapshot parent, Lane* lane,
               const Lane::ChannelEdit* edits, Candidates* out) const;

  const runtime::TransitionGenerator* generator_;
  const runtime::FlatSnapshotCodec* codec_;
  SnapshotNormalization normalization_;
  /// A snapshot is a function of its move key, so the move memo never hits.
  bool bypass_move_memo_ = false;
  /// Per peer: the move key holds the whole local view (move_parts_ is
  /// the same selection as snapshot parts, for AppendPart); the input key
  /// holds what the peer's options rules name, never the input itself.
  std::vector<ViewSelection> move_view_, input_view_;
  std::vector<std::vector<runtime::SnapshotPart>> move_parts_;
  /// Per peer, per move part: the arity of its relation block, or a
  /// one-word flag marker; locates the parts inside a move key and gives
  /// the state and prev arities for assembling the move.
  std::vector<std::vector<uint32_t>> move_part_arities_;
  /// Per peer, per move rule: its footprint, the indices into move_parts_
  /// of the parts its body names (the database is fixed per graph).
  std::vector<std::vector<std::vector<uint32_t>>> rule_parts_;
  std::vector<bool> lossy_;  // per channel
  std::vector<size_t> env_consume_, env_feed_;
  /// Per channel: the encoded environment-message candidates.
  std::vector<std::vector<std::vector<uint32_t>>> env_candidates_;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_FLAT_EXPANSION_H_
