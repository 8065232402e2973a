#include "runtime/transition.h"

#include <cassert>

namespace wsv::runtime {

namespace {

/// Sets a 0-ary relation to the given truth value.
data::Relation PropRelation(bool value) {
  data::Relation r(0);
  if (value) r.Insert(data::Tuple{});
  return r;
}

}  // namespace

TransitionGenerator::TransitionGenerator(const spec::Composition* comp,
                                         std::vector<data::Instance> databases,
                                         data::Domain domain,
                                         const Interner* interner,
                                         RunOptions options)
    : comp_(comp),
      databases_(std::move(databases)),
      domain_(std::move(domain)),
      interner_(interner),
      options_(options),
      evaluator_(interner) {
  assert(databases_.size() == comp_->peers().size());
  // Precompute channel wiring per peer.
  wiring_.resize(comp_->peers().size());
  for (size_t p = 0; p < comp_->peers().size(); ++p) {
    const spec::Peer& peer = comp_->peers()[p];
    PeerWiring& w = wiring_[p];
    w.in_channel.resize(peer.in_queues().size());
    w.out_channel.resize(peer.out_queues().size());
    w.consumes.assign(peer.in_queues().size(), false);
    for (size_t q = 0; q < peer.in_queues().size(); ++q) {
      for (size_t c = 0; c < comp_->channels().size(); ++c) {
        if (comp_->channels()[c].name == peer.in_queues()[q].name) {
          w.in_channel[q] = c;
          break;
        }
      }
    }
    for (size_t q = 0; q < peer.out_queues().size(); ++q) {
      for (size_t c = 0; c < comp_->channels().size(); ++c) {
        if (comp_->channels()[c].name == peer.out_queues()[q].name) {
          w.out_channel[q] = c;
          break;
        }
      }
    }
    // In-queues mentioned anywhere in the peer's rules get dequeued on every
    // move (Definition 2.4).
    std::set<std::string> mentioned;
    for (const spec::Rule& rule : peer.rules()) {
      auto names = rule.body->RelationNames();
      mentioned.insert(names.begin(), names.end());
    }
    for (size_t q = 0; q < peer.in_queues().size(); ++q) {
      if (mentioned.count(peer.in_queues()[q].name) > 0) w.consumes[q] = true;
    }
  }
  // Index each peer's move rules once (MoveRules order).
  move_rules_.resize(comp_->peers().size());
  for (size_t p = 0; p < comp_->peers().size(); ++p) {
    const spec::Peer& peer = comp_->peers()[p];
    MoveRules& m = move_rules_[p];
    auto slot = [&](spec::RuleKind kind, const std::string& name) {
      const spec::Rule* rule = peer.FindRule(kind, name);
      if (rule == nullptr) return -1;
      m.rules.push_back(rule);
      return static_cast<int>(m.rules.size() - 1);
    };
    for (size_t s = 0; s < peer.declared_state_schema().size(); ++s) {
      const std::string& name = peer.declared_state_schema().relation(s).name;
      m.insert.push_back(slot(spec::RuleKind::kStateInsert, name));
      m.remove.push_back(slot(spec::RuleKind::kStateDelete, name));
    }
    for (size_t a = 0; a < peer.action_schema().size(); ++a) {
      m.action.push_back(
          slot(spec::RuleKind::kAction, peer.action_schema().relation(a).name));
    }
    for (const spec::QueueDecl& decl : peer.out_queues()) {
      m.send.push_back(slot(spec::RuleKind::kSend, decl.name));
    }
    for (size_t i = 0; i < peer.input_schema().size(); ++i) {
      std::vector<size_t>& window = m.window.emplace_back();
      for (int k = 1; k <= peer.lookback(); ++k) {
        window.push_back(peer.prev_input_schema().IndexOf(
            spec::PrevInputName(peer.input_schema().relation(i).name, k)));
      }
    }
  }
}

bool TransitionGenerator::ChannelIsLossy(spec::QueueKind kind) const {
  if (!options_.lossy) return false;
  if (kind == spec::QueueKind::kNested && options_.perfect_nested) {
    return false;
  }
  return true;
}

LocalView TransitionGenerator::View(const Snapshot& snap, size_t peer) const {
  const PeerConfig& cfg = snap.peers[peer];
  LocalView view{cfg.state, cfg.input, cfg.prev, {}, cfg.send_errors};
  for (size_t c : wiring_[peer].in_channel) {
    const auto& queue = snap.channels[c];
    view.heads.push_back(queue.empty() ? std::nullopt
                                       : std::optional(queue.front()));
  }
  return view;
}

Result<fo::MapStructure> TransitionGenerator::BuildRuleStructure(
    size_t peer_index, const LocalView& view, bool include_input) const {
  const spec::Peer& peer = comp_->peers()[peer_index];
  fo::MapStructure structure;
  structure.SetDomain(domain_);

  auto set_all = [&](const data::Instance& inst) {
    for (size_t i = 0; i < inst.schema()->size(); ++i) {
      structure.Set(inst.schema()->relation(i).name, inst.relation(i));
    }
  };
  set_all(databases_[peer_index]);
  set_all(view.state);
  set_all(view.prev);
  if (include_input) set_all(view.input);
  // Queue views: f(Q) (first message) and the empty_Q queue-state.
  for (size_t q = 0; q < peer.in_queues().size(); ++q) {
    const spec::QueueDecl& decl = peer.in_queues()[q];
    const std::optional<data::Relation>& head = view.heads[q];
    structure.Set(decl.name, head ? *head : data::Relation(decl.arity()));
    structure.Set(spec::QueueEmptyStateName(decl.name),
                  PropRelation(!head.has_value()));
  }
  // Send-error flags (Theorem 3.8: consultable by rules and properties;
  // constant false outside the deterministic-send semantics).
  for (size_t q = 0; q < peer.out_queues().size(); ++q) {
    if (peer.out_queues()[q].kind != spec::QueueKind::kFlat) continue;
    structure.Set("error_" + peer.out_queues()[q].name,
                  PropRelation(q < view.send_errors.size() &&
                               view.send_errors[q]));
  }
  return structure;
}

Result<std::vector<data::Instance>> TransitionGenerator::InputChoices(
    size_t peer_index, const LocalView& view) const {
  const spec::Peer& peer = comp_->peers()[peer_index];
  WSV_ASSIGN_OR_RETURN(fo::MapStructure base,
                       BuildRuleStructure(peer_index, view,
                                          /*include_input=*/false));
  // Evaluate the options rule of every input relation, then form all
  // combinations of "no input" plus each option tuple (Definition 2.3).
  std::vector<data::Instance> combos;
  combos.emplace_back(&peer.input_schema());
  for (size_t i = 0; i < peer.input_schema().size(); ++i) {
    const data::RelationSchema& rel = peer.input_schema().relation(i);
    const spec::Rule* rule =
        peer.FindRule(spec::RuleKind::kInputOptions, rel.name);
    data::Relation options(rel.arity());
    if (rule != nullptr) {
      WSV_ASSIGN_OR_RETURN(
          options, evaluator_.EvaluateQuery(rule->body, rule->head_vars, base));
    }
    if (options.empty()) continue;  // only "no input" possible
    std::vector<data::Instance> expanded;
    expanded.reserve(combos.size() * (options.size() + 1));
    for (const data::Instance& combo : combos) {
      expanded.push_back(combo);  // pick nothing
      for (const data::Tuple& t : options) {
        data::Instance with = combo;
        with.relation(i).Insert(t);
        expanded.push_back(std::move(with));
      }
    }
    combos = std::move(expanded);
  }
  return combos;
}

void TransitionGenerator::DeliverMessages(
    Snapshot base, const std::vector<OutgoingMessage>& messages,
    size_t message_index, std::vector<Snapshot>& out) const {
  if (message_index == messages.size()) {
    out.push_back(std::move(base));
    return;
  }
  const OutgoingMessage& msg = messages[message_index];
  base.sent[msg.channel] = true;

  // Drop branch (lossy channel) — also the only branch when the queue is
  // full (k-bounded semantics, Section 3.1).
  bool full = base.channels[msg.channel].size() >= options_.queue_bound;
  bool lossy = ChannelIsLossy(msg.kind);
  if (full || lossy) {
    Snapshot dropped = base;
    DeliverMessages(std::move(dropped), messages, message_index + 1, out);
  }
  if (!full) {
    Snapshot delivered = std::move(base);
    delivered.channels[msg.channel].push_back(msg.content);
    delivered.received[msg.channel] = true;
    DeliverMessages(std::move(delivered), messages, message_index + 1, out);
  }
}

Result<PeerMove> TransitionGenerator::EvaluateMove(
    size_t peer_index, const LocalView& view) const {
  std::vector<data::Relation> results(move_rules_[peer_index].rules.size());
  WSV_RETURN_IF_ERROR(
      EvaluateMoveRules(peer_index, view, /*only=*/nullptr, &results));
  return AssembleMove(peer_index, view, std::move(results));
}

Status TransitionGenerator::EvaluateMoveRules(
    size_t peer_index, const LocalView& view, const std::vector<bool>* only,
    std::vector<data::Relation>* results) const {
  // Definition 2.4: the transition consumes the input *stored in the
  // current configuration* (Definition 2.3 requires it to be
  // options-consistent there); the successor's input is re-chosen by the
  // caller against the successor configuration. All rules read the same
  // structure: snapshot semantics.
  WSV_ASSIGN_OR_RETURN(fo::MapStructure structure,
                       BuildRuleStructure(peer_index, view,
                                          /*include_input=*/true));
  const std::vector<const spec::Rule*>& rules = move_rules_[peer_index].rules;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (only != nullptr && !(*only)[i]) continue;
    WSV_ASSIGN_OR_RETURN(
        (*results)[i],
        evaluator_.EvaluateQuery(rules[i]->body, rules[i]->head_vars,
                                 structure));
  }
  return Status::Ok();
}

PeerMove TransitionGenerator::AssembleMove(
    size_t peer_index, LocalView view,
    std::vector<data::Relation> results) const {
  const spec::Peer& peer = comp_->peers()[peer_index];
  const PeerWiring& wiring = wiring_[peer_index];
  const MoveRules& rules = move_rules_[peer_index];
  PeerMove move;

  // --- State updates. ---
  move.state = std::move(view.state);
  for (size_t s = 0; s < rules.insert.size(); ++s) {
    const int ins = rules.insert[s];
    const int del = rules.remove[s];
    data::Relation& current = move.state.relation(s);
    if (del < 0) {
      if (ins >= 0) current = current.Union(results[ins]);
      continue;  // no rule: state unchanged
    }
    const data::Relation& minus = results[del];
    if (ins < 0) {
      current = current.Difference(minus);
      continue;
    }
    // (phi+ and not phi-) or (S and phi+ and phi-) or (S and not phi+ and
    // not phi-)  — conflicting insert+delete is a no-op (Definition 2.4).
    const data::Relation& plus = results[ins];
    data::Relation result = plus.Difference(minus);
    result = result.Union(current.Intersection(plus.Intersection(minus)));
    current = result.Union(current.Difference(plus.Union(minus)));
  }

  // --- Actions. ---
  move.action = data::Instance(&peer.action_schema());
  for (size_t a = 0; a < rules.action.size(); ++a) {
    if (rules.action[a] >= 0) {
      move.action.SetRelation(a, std::move(results[rules.action[a]]));
    }
  }

  // --- Sends. ---
  std::vector<std::vector<OutgoingMessage>>& send_alternatives = move.sends;
  send_alternatives.emplace_back();  // start with "messages so far" = none
  move.send_errors.assign(peer.out_queues().size(), false);
  for (size_t q = 0; q < peer.out_queues().size(); ++q) {
    const spec::QueueDecl& decl = peer.out_queues()[q];
    if (rules.send[q] < 0) continue;
    const data::Relation& result = results[rules.send[q]];
    size_t channel = wiring.out_channel[q];
    if (decl.kind == spec::QueueKind::kNested) {
      if (result.empty() && options_.skip_empty_nested_sends) continue;
      for (auto& alt : send_alternatives) {
        alt.push_back(OutgoingMessage{channel, decl.kind, result});
      }
    } else {
      if (result.empty()) continue;
      if (result.size() == 1) {
        data::Relation msg(decl.arity());
        msg.Insert(result.tuples()[0]);
        for (auto& alt : send_alternatives) {
          alt.push_back(OutgoingMessage{channel, decl.kind, msg});
        }
      } else if (options_.deterministic_flat_sends) {
        // Theorem 3.8 semantics: runtime error, no message.
        move.send_errors[q] = true;
      } else {
        // Nondeterministically pick one tuple (Definition 2.4).
        std::vector<std::vector<OutgoingMessage>> expanded;
        for (const auto& alt : send_alternatives) {
          for (const data::Tuple& t : result) {
            data::Relation msg(decl.arity());
            msg.Insert(t);
            auto with = alt;
            with.push_back(OutgoingMessage{channel, decl.kind,
                                           std::move(msg)});
            expanded.push_back(std::move(with));
          }
        }
        send_alternatives = std::move(expanded);
      }
    }
  }

  // --- Previous-input window update (shift the lookback window with the
  // input this transition consumed). ---
  move.prev = std::move(view.prev);
  for (size_t i = 0; i < rules.window.size(); ++i) {
    data::Relation& input = view.input.relation(i);
    if (input.empty()) continue;  // window unchanged
    const std::vector<size_t>& window = rules.window[i];
    for (size_t k = window.size(); k > 1; --k) {
      move.prev.relation(window[k - 1]) =
          std::move(move.prev.relation(window[k - 2]));
    }
    move.prev.relation(window.front()) = std::move(input);
  }
  return move;
}

Result<std::vector<Snapshot>> TransitionGenerator::SuccessorsForPeer(
    const Snapshot& snap, size_t peer_index) const {
  const spec::Peer& peer = comp_->peers()[peer_index];
  const PeerWiring& wiring = wiring_[peer_index];
  WSV_ASSIGN_OR_RETURN(PeerMove move,
                       EvaluateMove(peer_index, View(snap, peer_index)));

  Snapshot next = snap;
  next.mover = static_cast<int>(peer_index);
  next.received.assign(next.received.size(), false);
  next.sent.assign(next.sent.size(), false);
  PeerConfig& cfg = next.peers[peer_index];
  cfg.state = std::move(move.state);
  cfg.input.Clear();  // re-chosen per delivered successor below
  cfg.prev = std::move(move.prev);
  cfg.action = std::move(move.action);
  cfg.send_errors = std::move(move.send_errors);

  // --- Dequeue consumed in-queues. ---
  for (size_t q = 0; q < peer.in_queues().size(); ++q) {
    if (!wiring.consumes[q]) continue;
    auto& queue = next.channels[wiring.in_channel[q]];
    if (!queue.empty()) queue.erase(queue.begin());
  }

  // --- Deliver messages with lossy/bounded branching. ---
  std::vector<Snapshot> delivered;
  for (auto& alt : move.sends) {
    DeliverMessages(next, alt, 0, delivered);
  }

  // --- Choose the successor configuration's input (Definition 2.3). ---
  std::vector<Snapshot> successors;
  for (Snapshot& d : delivered) {
    WSV_ASSIGN_OR_RETURN(std::vector<data::Instance> choices,
                         InputChoices(peer_index, View(d, peer_index)));
    for (data::Instance& input : choices) {
      Snapshot with_input = d;
      with_input.peers[peer_index].input = std::move(input);
      successors.push_back(std::move(with_input));
    }
  }
  return successors;
}

Result<std::vector<Snapshot>> TransitionGenerator::InitialSnapshots() const {
  // States, previous inputs, actions and queues empty; each peer's input is
  // any options-consistent choice at the empty configuration.
  std::vector<Snapshot> initials{MakeInitialSnapshot(*comp_)};
  for (size_t p = 0; p < comp_->peers().size(); ++p) {
    const spec::Peer& peer = comp_->peers()[p];
    if (peer.input_schema().size() == 0) continue;
    WSV_ASSIGN_OR_RETURN(std::vector<data::Instance> choices,
                         InputChoices(p, View(initials.front(), p)));
    if (choices.size() <= 1) continue;  // only the empty input
    std::vector<Snapshot> expanded;
    expanded.reserve(initials.size() * choices.size());
    for (const Snapshot& base : initials) {
      for (const data::Instance& input : choices) {
        Snapshot with_input = base;
        with_input.peers[p].input = input;
        expanded.push_back(std::move(with_input));
      }
    }
    initials = std::move(expanded);
  }
  return initials;
}

std::vector<data::Relation> TransitionGenerator::EnvCandidates(
    size_t channel_index) const {
  const spec::Channel& channel = comp_->channels()[channel_index];
  // The configured finite domain for this channel (Section 5's finite-domain
  // assumption), or every tuple over the evaluation domain.
  std::vector<data::Relation> candidates;
  auto configured = options_.env_message_candidates.find(channel.name);
  if (configured != options_.env_message_candidates.end()) {
    for (const std::vector<std::string>& spelling_row : configured->second) {
      if (spelling_row.size() != channel.arity()) continue;
      std::vector<data::Value> row;
      bool ok = true;
      for (const std::string& spelling : spelling_row) {
        SymbolId v = interner_->Lookup(spelling);
        if (v == kInvalidSymbol) {
          ok = false;  // spelling outside the task's domain: skip
          break;
        }
        row.push_back(v);
      }
      if (!ok) continue;
      data::Relation msg(channel.arity());
      msg.Insert(data::Tuple(std::move(row)));
      candidates.push_back(std::move(msg));
    }
    return candidates;
  }
  if (channel.kind == spec::QueueKind::kFlat ||
      options_.env_nested_max_tuples <= 1) {
    // All single tuples over domain^arity.
    std::vector<size_t> idx(channel.arity(), 0);
    if (!domain_.empty() || channel.arity() == 0) {
      while (true) {
        std::vector<data::Value> row(channel.arity());
        for (size_t i = 0; i < channel.arity(); ++i) {
          row[i] = domain_.values()[idx[i]];
        }
        data::Relation msg(channel.arity());
        msg.Insert(data::Tuple(std::move(row)));
        candidates.push_back(std::move(msg));
        size_t i = 0;
        while (i < idx.size()) {
          if (++idx[i] < domain_.size()) break;
          idx[i] = 0;
          ++i;
        }
        if (i == idx.size()) break;
      }
    }
  }
  return candidates;
}

Result<std::vector<Snapshot>> TransitionGenerator::EnvSuccessors(
    const Snapshot& snap) const {
  std::vector<Snapshot> successors;
  if (!options_.allow_env_moves) return successors;

  // Channels the environment consumes from (peer -> environment) and feeds
  // (environment -> peer).
  std::vector<size_t> env_consume;
  std::vector<size_t> env_feed;
  for (size_t c = 0; c < comp_->channels().size(); ++c) {
    if (comp_->channels()[c].ToEnvironment()) env_consume.push_back(c);
    if (comp_->channels()[c].FromEnvironment()) env_feed.push_back(c);
  }

  Snapshot stutter = snap;
  stutter.mover = kEnvMover;
  stutter.received.assign(stutter.received.size(), false);
  stutter.sent.assign(stutter.sent.size(), false);

  if (options_.env_single_action) {
    // One action per environment move: stutter, consume one head, or feed
    // one message (delivered or dropped) into one queue.
    std::vector<Snapshot> successors{stutter};
    for (size_t c : env_consume) {
      if (snap.channels[c].empty()) continue;
      Snapshot consumed = stutter;
      consumed.channels[c].erase(consumed.channels[c].begin());
      successors.push_back(std::move(consumed));
    }
    for (size_t c : env_feed) {
      const spec::Channel& channel = comp_->channels()[c];
      bool full = stutter.channels[c].size() >= options_.queue_bound;
      bool lossy = ChannelIsLossy(channel.kind);
      std::vector<data::Relation> candidates = EnvCandidates(c);
      // "Sent but dropped" is one snapshot whatever the message was.
      if ((lossy || full) && !candidates.empty()) {
        Snapshot dropped = stutter;
        dropped.sent[c] = true;
        successors.push_back(std::move(dropped));
      }
      for (const data::Relation& msg : candidates) {
        if (full) break;
        Snapshot fed = stutter;
        fed.sent[c] = true;
        fed.channels[c].push_back(msg);
        fed.received[c] = true;
        successors.push_back(std::move(fed));
      }
    }
    return successors;
  }

  // Definition-faithful multi-queue environment transition: consume any
  // subset of front messages, then feed any combination of messages.
  std::vector<Snapshot> bases;
  {
    size_t combos = static_cast<size_t>(1) << env_consume.size();
    for (size_t mask = 0; mask < combos; ++mask) {
      Snapshot base = stutter;
      for (size_t i = 0; i < env_consume.size(); ++i) {
        if (((mask >> i) & 1) == 0) continue;
        auto& queue = base.channels[env_consume[i]];
        if (!queue.empty()) queue.erase(queue.begin());
      }
      bases.push_back(std::move(base));
    }
  }

  // For each feed channel: nothing, or one message over the candidate set.
  for (size_t c : env_feed) {
    const spec::Channel& channel = comp_->channels()[c];
    std::vector<data::Relation> candidates = EnvCandidates(c);
    std::vector<Snapshot> expanded;
    for (const Snapshot& base : bases) {
      expanded.push_back(base);  // feed nothing
      bool full = base.channels[c].size() >= options_.queue_bound;
      bool lossy = ChannelIsLossy(channel.kind);
      // "Sent but dropped" is one snapshot whatever the message was.
      if ((lossy || full) && !candidates.empty()) {
        Snapshot dropped = base;
        dropped.sent[c] = true;
        expanded.push_back(std::move(dropped));
      }
      for (const data::Relation& msg : candidates) {
        if (full) break;
        Snapshot fed = base;
        fed.sent[c] = true;
        fed.channels[c].push_back(msg);
        fed.received[c] = true;
        expanded.push_back(std::move(fed));
      }
    }
    bases = std::move(expanded);
  }
  return bases;
}

Result<std::vector<Snapshot>> TransitionGenerator::Successors(
    const Snapshot& snap) const {
  std::vector<Snapshot> all;
  for (size_t p = 0; p < comp_->peers().size(); ++p) {
    WSV_ASSIGN_OR_RETURN(std::vector<Snapshot> succ,
                         SuccessorsForPeer(snap, p));
    for (Snapshot& s : succ) all.push_back(std::move(s));
  }
  if (options_.allow_env_moves) {
    WSV_ASSIGN_OR_RETURN(std::vector<Snapshot> succ, EnvSuccessors(snap));
    for (Snapshot& s : succ) all.push_back(std::move(s));
  }
  return all;
}

}  // namespace wsv::runtime
