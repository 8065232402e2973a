#ifndef WSVERIFY_RUNTIME_TRANSITION_H_
#define WSVERIFY_RUNTIME_TRANSITION_H_

#include <optional>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "data/instance.h"
#include "data/value.h"
#include "fo/eval.h"
#include "runtime/run_options.h"
#include "runtime/snapshot.h"
#include "spec/composition.h"

namespace wsv::runtime {

/// What one peer's rules read at a configuration (Definitions 2.4, 2.6):
/// its state, current input and previous inputs, the first message and
/// emptiness of each in-queue, and its error_Q flags. The database is fixed
/// per generator, so a peer's move and its input options are functions of
/// this view alone.
struct LocalView {
  data::Instance state;
  data::Instance input;
  data::Instance prev;
  /// Per in-queue (aligned with the peer's in_queues()): the first
  /// message, or nullopt when the queue is empty.
  std::vector<std::optional<data::Relation>> heads;
  /// error_Q flags, aligned with the peer's out_queues().
  std::vector<bool> send_errors;
};

/// A message produced by a send rule, before channel delivery.
struct OutgoingMessage {
  size_t channel;
  spec::QueueKind kind;
  data::Relation content;  // singleton for flat
};

/// A peer's move evaluated on its local view (Definition 2.4), before the
/// queue effects: the successor configuration's state, lookback window,
/// actions and error flags, and the messages sent.
struct PeerMove {
  data::Instance state;
  data::Instance prev;
  data::Instance action;
  std::vector<bool> send_errors;
  /// One message list per nondeterministic flat-send pick, each in
  /// out-queue order; there is always at least one (possibly empty) list.
  std::vector<std::vector<OutgoingMessage>> sends;
};

/// The rules of one peer's move (Definition 2.4) in evaluation order: per
/// declared state relation its insert then its delete rule, then per action
/// relation its rule, then per out-queue its send rule. The slot vectors
/// give each relation's rule index in `rules`, or -1 where it has none.
struct MoveRules {
  std::vector<const spec::Rule*> rules;
  std::vector<int> insert, remove;  // per declared state relation
  std::vector<int> action;          // per action relation
  std::vector<int> send;            // per out-queue
  /// Per input relation: the prev-schema indices of prev_<I>, prev2_<I>,
  /// ... up to the lookback, newest first.
  std::vector<std::vector<size_t>> window;
};

/// Generates the legal successor snapshots of a composition configuration
/// (Definition 2.4 lifted to serialized runs, Definition 2.6).
///
/// A transition picks one mover (a peer, or the environment for open
/// compositions) and branches over: the user's input choices (at most one
/// option tuple per input relation), nondeterministic flat-send picks,
/// lossy-channel drops, and — for environment moves — arbitrary
/// domain-bounded message injections (Section 5).
///
/// Successors emit in a fixed order: peers in index order, then the
/// environment; within a peer move, send alternatives, then per message
/// the drop branch before the deliver branch, then input choices.
/// verifier::FlatExpander reproduces this order on flat encodings from the
/// same EvaluateMoveRules / InputChoices / EnvCandidates, assembling each
/// move on words as AssembleMove does on objects.
class TransitionGenerator {
 public:
  /// Channel wiring of one peer.
  struct PeerWiring {
    /// Composition channel index per in-queue / out-queue (aligned with the
    /// peer's in_queues() / out_queues()).
    std::vector<size_t> in_channel;
    std::vector<size_t> out_channel;
    /// In-queues mentioned in some rule body (these are dequeued on every
    /// move of the peer, Definition 2.4).
    std::vector<bool> consumes;
  };

  /// `comp` must be validated and outlive the generator. `databases` is one
  /// instance of each peer's database schema, aligned with comp.peers().
  /// `domain` is the evaluation domain for rule quantifiers (the
  /// pseudo-domain during verification, or the active domain during
  /// simulation); `interner` resolves rule constants.
  TransitionGenerator(const spec::Composition* comp,
                      std::vector<data::Instance> databases,
                      data::Domain domain, const Interner* interner,
                      RunOptions options);

  const spec::Composition& composition() const { return *comp_; }
  const std::vector<data::Instance>& databases() const { return databases_; }
  const data::Domain& domain() const { return domain_; }
  const RunOptions& options() const { return options_; }
  const PeerWiring& wiring(size_t peer) const { return wiring_[peer]; }
  const MoveRules& move_rules(size_t peer) const { return move_rules_[peer]; }

  /// All legal initial snapshots (Definition 2.6): states, previous inputs,
  /// actions and queues empty; every peer's current input is any
  /// options-consistent choice at the empty configuration (Definition 2.3
  /// requires each configuration to carry its input).
  Result<std::vector<Snapshot>> InitialSnapshots() const;

  /// All successors across all movers (peers, plus the environment when
  /// options().allow_env_moves).
  Result<std::vector<Snapshot>> Successors(const Snapshot& snap) const;

  /// Successors where peer `peer_index` moves.
  Result<std::vector<Snapshot>> SuccessorsForPeer(const Snapshot& snap,
                                                  size_t peer_index) const;

  /// Successors where the environment moves (open compositions only).
  Result<std::vector<Snapshot>> EnvSuccessors(const Snapshot& snap) const;

  /// Peer `peer`'s local view in `snap`.
  LocalView View(const Snapshot& snap, size_t peer) const;

  /// Evaluates every rule of `peer` on `view` (Definition 2.4: all rules
  /// read the current configuration, including its stored input):
  /// EvaluateMoveRules, then AssembleMove.
  Result<PeerMove> EvaluateMove(size_t peer, const LocalView& view) const;

  /// Evaluates rule i of move_rules(peer) on `view` into (*results)[i], for
  /// every i with `only` null or (*only)[i] set, in rule order; the first
  /// failure is returned. `results` holds one relation per move rule.
  Status EvaluateMoveRules(size_t peer, const LocalView& view,
                           const std::vector<bool>* only,
                           std::vector<data::Relation>* results) const;

  /// The options-consistent input instances of `peer` at the configuration
  /// whose local view is `view` (Definition 2.3: at most one option tuple
  /// per input relation); view.input is not read. The first choice is the
  /// empty input.
  Result<std::vector<data::Instance>> InputChoices(size_t peer,
                                                   const LocalView& view) const;

  /// Whether a message on a channel of `kind` may be dropped.
  bool ChannelIsLossy(spec::QueueKind kind) const;

  /// Candidate environment-message contents for a channel (configured
  /// finite domain, or every tuple over the evaluation domain).
  std::vector<data::Relation> EnvCandidates(size_t channel_index) const;

 private:
  /// The evaluation structure `peer`'s rules see at `view`: database,
  /// state, previous inputs, first messages and empty_Q states of its
  /// in-queues, error_Q flags, and the input when `include_input`.
  Result<fo::MapStructure> BuildRuleStructure(size_t peer,
                                              const LocalView& view,
                                              bool include_input) const;

  /// The move of `peer` at `view` (Definition 2.4) from the results of its
  /// move rules, aligned with move_rules(peer).rules: the state update, the
  /// actions, the send alternatives and the shifted lookback window.
  PeerMove AssembleMove(size_t peer, LocalView view,
                        std::vector<data::Relation> results) const;

  /// Applies channel delivery (lossy branching, bounds) of `messages` to
  /// `base`, appending all resulting snapshots to `out`.
  void DeliverMessages(Snapshot base,
                       const std::vector<OutgoingMessage>& messages,
                       size_t message_index,
                       std::vector<Snapshot>& out) const;

  const spec::Composition* comp_;
  std::vector<data::Instance> databases_;
  data::Domain domain_;
  const Interner* interner_;
  RunOptions options_;
  fo::Evaluator evaluator_;
  std::vector<PeerWiring> wiring_;
  std::vector<MoveRules> move_rules_;
};

}  // namespace wsv::runtime

#endif  // WSVERIFY_RUNTIME_TRANSITION_H_
