// FlatExpander: which view parts each memo key holds, the move, rule,
// input-choice and emitted-choice memos, decoding a key back into a view for
// the rules that miss, and the successor vectors built from the parent's.

#include "verifier/flat_expansion.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>

namespace wsv::verifier {

namespace {

using runtime::FlatSnapshot;
using runtime::SnapshotPart;

/// The move_part_arities_ entry of a one-word flag part.
constexpr uint32_t kFlagPart = UINT32_MAX;

bool Unseen(uint32_t id) { return (id & Candidates::kUnseenPart) != 0; }

/// The id of the section `words[0, count)` in the store's part table, or,
/// for a section the table lacks, an unseen-part id for a copy appended to
/// `out`.
uint32_t PartId(const SnapshotStore& store, const uint32_t* words,
                size_t count, Candidates* out) {
  const size_t hash = runtime::HashFlatSnapshot(words, count);
  const uint32_t id = store.FindPart(words, count, hash);
  if (id != FlatIdSet::kEmpty) return id;
  out->parts.Add(words, count);
  out->part_hashes.push_back(hash);
  return Candidates::kUnseenPart |
         static_cast<uint32_t>(out->parts.size() - 1);
}

/// PartId through `*cache`, which keeps the id once the table has it.
uint32_t CachedPartId(const SnapshotStore& store, const uint32_t* words,
                      size_t count, uint32_t* cache, Candidates* out) {
  if (*cache != FlatIdSet::kEmpty) return *cache;
  const uint32_t id = PartId(store, words, count, out);
  if (!Unseen(id)) *cache = id;
  return id;
}

/// Appends the candidate `vec`: its id if the store has it, else the
/// vector itself for the merge. A vector with an unseen part is fresh.
void Emit(const SnapshotStore& store, const uint32_t* vec, bool unseen,
          Candidates* out) {
  SnapshotId id = FlatIdSet::kEmpty;
  size_t hash = 0;
  if (!unseen) {
    hash = store.Hash(vec);
    id = store.Find(vec, hash);
  }
  out->ids.push_back(id);
  if (id == FlatIdSet::kEmpty) {
    out->fresh.insert(out->fresh.end(), vec, vec + store.width());
    out->fresh_hashes.push_back(hash);
  }
}

}  // namespace

template <typename Encode>
Result<uint32_t*> FlatExpander::Memoized(
    Lane::Memo* memo, const std::vector<uint32_t>& key, size_t* evals,
    Encode encode) {
  const size_t hash = runtime::HashFlatSnapshot(key.data(), key.size());
  uint32_t id = memo->keys.Find(key.data(), key.size(), hash);
  if (id == FlatIdSet::kEmpty) {
    ++*evals;
    WSV_RETURN_IF_ERROR(encode(&memo->values));
    memo->value_begin.push_back(static_cast<uint32_t>(memo->values.size()));
    id = memo->keys.Add(key.data(), key.size(), hash);
  }
  return memo->values.data() + memo->value_begin[id];
}

FlatExpander::FlatExpander(const runtime::TransitionGenerator* generator,
                           const runtime::FlatSnapshotCodec* codec,
                           SnapshotNormalization normalization)
    : generator_(generator),
      codec_(codec),
      normalization_(std::move(normalization)) {
  const spec::Composition& comp = generator_->composition();
  using Kind = SnapshotPart::Kind;
  auto all = [](size_t n) {
    std::vector<uint32_t> indices(n);
    for (uint32_t i = 0; i < n; ++i) indices[i] = i;
    return indices;
  };
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const spec::Peer& peer = comp.peers()[p];
    ViewSelection& move = move_view_.emplace_back();
    move.state = all(peer.declared_state_schema().size());
    move.input = all(peer.input_schema().size());
    move.prev = all(peer.prev_input_schema().size());
    move.heads = all(peer.in_queues().size());
    move.errors = all(peer.out_queues().size());

    const int32_t pi = static_cast<int32_t>(p);
    std::vector<SnapshotPart>& parts = move_parts_.emplace_back();
    std::vector<uint32_t>& arities = move_part_arities_.emplace_back();
    for (uint32_t part = 0; part < 3; ++part) {
      const data::Schema& schema = part == 0   ? peer.declared_state_schema()
                                   : part == 1 ? peer.input_schema()
                                               : peer.prev_input_schema();
      for (uint32_t r = 0; r < schema.size(); ++r) {
        parts.push_back({Kind::kRelation, pi, part, r});
        arities.push_back(static_cast<uint32_t>(schema.relation(r).arity()));
      }
    }
    for (uint32_t q : move.heads) {
      const uint32_t c =
          static_cast<uint32_t>(generator_->wiring(p).in_channel[q]);
      parts.push_back({Kind::kQueueEmpty, 0, 0, c});
      parts.push_back({Kind::kQueueFirst, 0, 0, c});
      arities.push_back(kFlagPart);
      arities.push_back(codec_->channel_arity(c));
    }
    for (uint32_t q : move.errors) {
      parts.push_back({Kind::kSendError, pi, 0, q});
      arities.push_back(kFlagPart);
    }

    // A rule body reads only the view parts it names (the database is
    // fixed): the options rules never the input, the move rules anything.
    auto select = [&](const std::set<std::string>& named, bool with_input) {
      auto named_in = [&](const data::Schema& schema, uint32_t r) {
        return named.count(schema.relation(r).name) > 0;
      };
      ViewSelection view;
      for (uint32_t r : move.state) {
        if (named_in(peer.declared_state_schema(), r)) view.state.push_back(r);
      }
      for (uint32_t r : move.input) {
        if (with_input && named_in(peer.input_schema(), r)) {
          view.input.push_back(r);
        }
      }
      for (uint32_t r : move.prev) {
        if (named_in(peer.prev_input_schema(), r)) view.prev.push_back(r);
      }
      for (uint32_t q : move.heads) {
        const std::string& name = peer.in_queues()[q].name;
        if (named.count(name) > 0 ||
            named.count(spec::QueueEmptyStateName(name)) > 0) {
          view.heads.push_back(q);
        }
      }
      for (uint32_t q : move.errors) {
        if (named.count("error_" + peer.out_queues()[q].name) > 0) {
          view.errors.push_back(q);
        }
      }
      return view;
    };
    std::set<std::string> options_named;
    for (const spec::Rule& rule : peer.rules()) {
      if (rule.kind != spec::RuleKind::kInputOptions) continue;
      auto names = rule.body->RelationNames();
      options_named.insert(names.begin(), names.end());
    }
    input_view_.push_back(select(options_named, /*with_input=*/false));

    // A move rule's footprint as indices into move_parts_, whose order is
    // state, input, prev, [empty, first] per head, then errors.
    const uint32_t input_base = static_cast<uint32_t>(move.state.size());
    const uint32_t prev_base =
        input_base + static_cast<uint32_t>(move.input.size());
    const uint32_t heads_base =
        prev_base + static_cast<uint32_t>(move.prev.size());
    const uint32_t errors_base =
        heads_base + 2 * static_cast<uint32_t>(move.heads.size());
    std::vector<std::vector<uint32_t>>& footprints = rule_parts_.emplace_back();
    for (const spec::Rule* rule : generator_->move_rules(p).rules) {
      const ViewSelection view = select(rule->body->RelationNames(), true);
      std::vector<uint32_t>& footprint = footprints.emplace_back();
      for (uint32_t r : view.state) footprint.push_back(r);
      for (uint32_t r : view.input) footprint.push_back(input_base + r);
      for (uint32_t r : view.prev) footprint.push_back(prev_base + r);
      for (uint32_t q : view.heads) {
        footprint.push_back(heads_base + 2 * q);
        footprint.push_back(heads_base + 2 * q + 1);
      }
      for (uint32_t q : view.errors) footprint.push_back(errors_base + q);
    }
  }
  // One peer and no channels leave a snapshot its header (no event bits),
  // state, input and tail; without the mover tag and the actions, all of it
  // follows from the move key (state, input and raw prev relations).
  bypass_move_memo_ = comp.peers().size() == 1 && comp.channels().empty() &&
                      !normalization_.keep_mover &&
                      !normalization_.keep_actions;
  const bool env = generator_->options().allow_env_moves;
  env_candidates_.resize(comp.channels().size());
  for (size_t c = 0; c < comp.channels().size(); ++c) {
    const spec::Channel& channel = comp.channels()[c];
    lossy_.push_back(generator_->ChannelIsLossy(channel.kind));
    if (env && channel.ToEnvironment()) env_consume_.push_back(c);
    if (env && channel.FromEnvironment()) {
      env_feed_.push_back(c);
      for (const data::Relation& msg : generator_->EnvCandidates(c)) {
        runtime::AppendRelationWords(msg, &env_candidates_[c].emplace_back());
      }
    }
  }
}

runtime::LocalView FlatExpander::DecodeView(size_t p,
                                            const ViewSelection& selection,
                                            const uint32_t* key) const {
  const spec::Peer& peer = generator_->composition().peers()[p];
  runtime::LocalView view{data::Instance(&peer.declared_state_schema()),
                          data::Instance(&peer.input_schema()),
                          data::Instance(&peer.prev_input_schema()),
                          std::vector<std::optional<data::Relation>>(
                              peer.in_queues().size()),
                          std::vector<bool>(peer.out_queues().size(), false)};
  const uint32_t* at = key;
  auto read = [&](const std::vector<uint32_t>& relations,
                  data::Instance& inst) {
    for (uint32_t r : relations) {
      data::Relation& rel = inst.relation(r);
      at = runtime::ReadRelationWords(at, static_cast<uint32_t>(rel.arity()),
                                      &rel);
    }
  };
  read(selection.state, view.state);
  read(selection.input, view.input);
  read(selection.prev, view.prev);
  for (uint32_t q : selection.heads) {
    if (*at++ != 0) {  // empty: the first-message block is [0]
      ++at;
    } else {
      const uint32_t arity =
          static_cast<uint32_t>(peer.in_queues()[q].arity());
      data::Relation msg(arity);
      at = runtime::ReadRelationWords(at, arity, &msg);
      view.heads[q] = std::move(msg);
    }
  }
  for (uint32_t q : selection.errors) view.send_errors[q] = *at++ != 0;
  return view;
}

Result<uint32_t*> FlatExpander::Move(FlatSnapshot parent, size_t p,
                                     Lane* lane, MemoCounts* counts) const {
  std::vector<uint32_t>& key = lane->key;
  key.clear();
  for (const SnapshotPart& part : move_parts_[p]) {
    codec_->AppendPart(parent, lane->layout, part, &key);
  }
  ++counts->move_lookups;
  auto encode = [&](std::vector<uint32_t>* out) -> Status {
    WSV_RETURN_IF_ERROR(RuleResults(p, lane, counts));
    AssembleMove(p, lane, out);
    return Status::Ok();
  };
  Lane::Memo& memo = lane->moves[p];
  if (bypass_move_memo_) {
    // Each snapshot is expanded once, so its move key never repeats.
    ++counts->move_evals;
    memo.values.clear();
    WSV_RETURN_IF_ERROR(encode(&memo.values));
    return memo.values.data();
  }
  return Memoized(&memo, key, &counts->move_evals, encode);
}

Status FlatExpander::RuleResults(size_t p, Lane* lane,
                                 MemoCounts* counts) const {
  const std::vector<uint32_t>& key = lane->key;
  std::vector<uint32_t>& part_begin = lane->part_begin;
  part_begin.clear();
  uint32_t at = 0;
  for (uint32_t arity : move_part_arities_[p]) {
    part_begin.push_back(at);
    at += arity == kFlagPart ? 1 : runtime::RelationBlockWords(&key[at], arity);
  }
  part_begin.push_back(at);
  const std::vector<const spec::Rule*>& rules =
      generator_->move_rules(p).rules;
  std::vector<Lane::Memo>& memos = lane->rules[p];
  std::vector<uint32_t>& rule_keys = lane->rule_keys;
  std::vector<Lane::RuleMiss>& misses = lane->rule_misses;
  std::vector<uint32_t>& result_at = lane->result_at;
  rule_keys.clear();
  misses.clear();
  result_at.resize(rules.size());
  lane->rule_missed.assign(rules.size(), false);
  for (uint32_t i = 0; i < rules.size(); ++i) {
    const uint32_t begin = static_cast<uint32_t>(rule_keys.size());
    for (uint32_t part : rule_parts_[p][i]) {
      rule_keys.insert(rule_keys.end(), key.begin() + part_begin[part],
                       key.begin() + part_begin[part + 1]);
    }
    const uint32_t end = static_cast<uint32_t>(rule_keys.size());
    const size_t hash =
        runtime::HashFlatSnapshot(rule_keys.data() + begin, end - begin);
    const uint32_t id =
        memos[i].keys.Find(rule_keys.data() + begin, end - begin, hash);
    if (id == FlatIdSet::kEmpty) {
      misses.push_back({i, begin, end, hash});
      lane->rule_missed[i] = true;
    } else {
      result_at[i] = memos[i].value_begin[id];
    }
  }
  counts->rule_lookups += rules.size();
  counts->rule_evals += misses.size();

  if (!misses.empty()) {
    std::vector<data::Relation> results(rules.size());
    WSV_RETURN_IF_ERROR(generator_->EvaluateMoveRules(
        p, DecodeView(p, move_view_[p], key.data()), &lane->rule_missed,
        &results));
    for (const Lane::RuleMiss& miss : misses) {
      Lane::Memo& memo = memos[miss.rule];
      result_at[miss.rule] = static_cast<uint32_t>(memo.values.size());
      runtime::AppendRelationWords(results[miss.rule], &memo.values);
      memo.value_begin.push_back(static_cast<uint32_t>(memo.values.size()));
      memo.keys.Add(rule_keys.data() + miss.begin, miss.end - miss.begin,
                    miss.hash);
    }
  }
  return Status::Ok();
}

void FlatExpander::AssembleMove(size_t p, Lane* lane,
                                std::vector<uint32_t>* out) const {
  const spec::Peer& peer = generator_->composition().peers()[p];
  const runtime::MoveRules& rules = generator_->move_rules(p);
  const std::vector<uint32_t>& arities = move_part_arities_[p];
  const uint32_t* key = lane->key.data();
  const std::vector<uint32_t>& part_begin = lane->part_begin;
  const std::vector<Lane::Memo>& memos = lane->rules[p];
  auto result = [&](int rule) -> const uint32_t* {
    return rule < 0 ? nullptr
                    : memos[rule].values.data() + lane->result_at[rule];
  };
  std::vector<uint32_t>& v = *out;
  auto append = [&](const uint32_t* block, uint32_t arity) {
    v.insert(v.end(), block, block + runtime::RelationBlockWords(block, arity));
  };
  const size_t start = v.size();
  v.resize(start + kMoveHeader);

  // State: Definition 2.4's update, one merge per relation. The move key
  // holds the state, input and prev relations in that order.
  const size_t states = rules.insert.size();
  for (size_t s = 0; s < states; ++s) {
    runtime::AppendStateUpdate(key + part_begin[s], result(rules.insert[s]),
                               result(rules.remove[s]), arities[s], &v);
  }
  const size_t state_end = v.size();

  // The lookback window, shifted by each non-empty input the move consumed.
  const size_t inputs = rules.window.size();
  const size_t prev_base = states + inputs;
  std::vector<const uint32_t*>& prev = lane->prev;
  prev.resize(peer.prev_input_schema().size());
  for (size_t r = 0; r < prev.size(); ++r) {
    prev[r] = key + part_begin[prev_base + r];
  }
  for (size_t i = 0; i < inputs; ++i) {
    const uint32_t* input = key + part_begin[states + i];
    if (input[0] == 0) continue;  // window unchanged
    const std::vector<size_t>& window = rules.window[i];
    for (size_t k = window.size(); k > 1; --k) {
      prev[window[k - 1]] = prev[window[k - 2]];
    }
    prev[window.front()] = input;
  }
  for (size_t r = 0; r < prev.size(); ++r) {
    append(prev[r], arities[prev_base + r]);
  }
  const size_t prev_end = v.size();

  // The tail: the window and the actions, less what is normalized away
  // (stored as the empty relation).
  const std::vector<bool>* keep_prev =
      normalization_.keep_prev.empty() ? nullptr
                                       : &normalization_.keep_prev[p];
  for (size_t r = 0; r < prev.size(); ++r) {
    if (keep_prev == nullptr || r >= keep_prev->size() || (*keep_prev)[r]) {
      append(prev[r], arities[prev_base + r]);
    } else {
      v.push_back(0);
    }
  }
  for (size_t a = 0; a < rules.action.size(); ++a) {
    if (normalization_.keep_actions && rules.action[a] >= 0) {
      append(result(rules.action[a]),
             static_cast<uint32_t>(peer.action_schema().relation(a).arity()));
    } else {
      v.push_back(0);
    }
  }
  const size_t tail_end = v.size();

  // Sends (Definition 2.4): a nested queue gets the whole result, a flat
  // one a single tuple; with several, each tuple is an alternative, or a
  // send error under the deterministic-send semantics (Theorem 3.8).
  const runtime::RunOptions& options = generator_->options();
  const size_t errors = v.size();
  v.resize(errors + rules.send.size(), 0);
  std::vector<Lane::Send>& sends = lane->sends;
  sends.clear();
  uint32_t alternatives = 1;
  for (size_t q = 0; q < rules.send.size(); ++q) {
    if (rules.send[q] < 0) continue;
    const uint32_t* block = result(rules.send[q]);
    const uint32_t channel =
        static_cast<uint32_t>(generator_->wiring(p).out_channel[q]);
    if (peer.out_queues()[q].kind == spec::QueueKind::kNested) {
      if (block[0] == 0 && options.skip_empty_nested_sends) continue;
      sends.push_back({channel, block, false});
    } else if (block[0] == 1) {
      sends.push_back({channel, block, false});
    } else if (block[0] > 1) {
      if (options.deterministic_flat_sends) {
        v[errors + q] = 1;
      } else {
        sends.push_back({channel, block, true});
        alternatives *= block[0];
      }
    }
  }
  // The alternatives in TransitionGenerator order: the picks of later
  // queues vary fastest.
  std::vector<uint32_t>& picks = lane->picks;
  picks.assign(sends.size(), 0);
  v.push_back(alternatives);
  for (uint32_t alt = 0; alt < alternatives; ++alt) {
    v.push_back(static_cast<uint32_t>(sends.size()));
    for (size_t m = 0; m < sends.size(); ++m) {
      const Lane::Send& send = sends[m];
      const uint32_t arity = codec_->channel_arity(send.channel);
      v.push_back(send.channel);
      if (!send.pick) {
        append(send.block, arity);
      } else {
        const uint32_t* tuple = send.block + 1 + picks[m] * arity;
        v.push_back(1);
        v.insert(v.end(), tuple, tuple + arity);
      }
    }
    for (size_t m = sends.size(); m-- > 0;) {
      if (!sends[m].pick) continue;
      if (++picks[m] < sends[m].block[0]) break;
      picks[m] = 0;
    }
  }
  v[start] = static_cast<uint32_t>(state_end - start - kMoveHeader);
  v[start + 1] = static_cast<uint32_t>(prev_end - state_end);
  v[start + 2] = static_cast<uint32_t>(tail_end - prev_end);
  v[start + 3] = static_cast<uint32_t>(rules.send.size());
  v[start + 4] = v[start + 5] = FlatIdSet::kEmpty;
}

Result<uint32_t*> FlatExpander::InputChoices(size_t p, Lane* lane,
                                             MemoCounts* counts) const {
  const std::vector<uint32_t>& key = lane->key;
  ++counts->input_lookups;
  return Memoized(&lane->inputs[p], key, &counts->input_evals,
                  [&](std::vector<uint32_t>* out) -> Status {
    WSV_ASSIGN_OR_RETURN(
        std::vector<data::Instance> choices,
        generator_->InputChoices(p,
                                 DecodeView(p, input_view_[p], key.data())));
    std::vector<uint32_t>& v = *out;
    v.push_back(static_cast<uint32_t>(choices.size()));
    for (const data::Instance& input : choices) {
      const size_t at = v.size();
      v.push_back(0);
      v.push_back(FlatIdSet::kEmpty);
      for (size_t r = 0; r < input.size(); ++r) {
        runtime::AppendRelationWords(input.relation(r), &v);
      }
      v[at] = static_cast<uint32_t>(v.size() - at - 2);
    }
    return Status::Ok();
  });
}

Status FlatExpander::Expand(const SnapshotStore& store, SnapshotId sid,
                            Lane* lane, Candidates* out,
                            MemoCounts* counts) const {
  const size_t peers = move_view_.size();
  if (lane->moves.size() != peers) {
    lane->moves.resize(peers);
    lane->rules.resize(peers);
    for (size_t p = 0; p < peers; ++p) {
      lane->rules[p].resize(rule_parts_[p].size());
    }
    lane->inputs.resize(peers);
    lane->choices.resize(peers);
    lane->edits.assign(codec_->composition().channels().size(), {});
  }
  const FlatSnapshot parent = store.Span(sid, &lane->span);
  const uint32_t* from = store.vector(sid);
  codec_->Locate(parent, &lane->layout);
  for (size_t p = 0; p < peers; ++p) {
    WSV_RETURN_IF_ERROR(
        ExpandPeer(store, from, parent, p, lane, out, counts));
  }
  ExpandEnv(store, from, parent, lane, out);
  return Status::Ok();
}

void FlatExpander::WriteHeader(const uint32_t* from, uint32_t mover_word,
                               const Lane::ChannelEdit* edits, int p,
                               const uint32_t* errors, uint32_t* out) const {
  out[0] = mover_word;
  uint32_t* events = out + 1;
  std::copy(from + 1, from + 1 + codec_->event_words(), events);
  auto set = [&](uint32_t bit, bool value) {
    const uint32_t mask = 1u << (bit % 32);
    if (value) {
      events[bit / 32] |= mask;
    } else {
      events[bit / 32] &= ~mask;
    }
  };
  const bool flags = normalization_.keep_flags;
  for (size_t c = 0; c < lossy_.size(); ++c) {
    set(codec_->received_bit(c), flags && edits[c].received);
    set(codec_->sent_bit(c), flags && edits[c].sent);
  }
  if (p >= 0) {
    const size_t outs =
        generator_->composition().peers()[p].out_queues().size();
    for (size_t q = 0; q < outs; ++q) {
      set(codec_->send_error_bit(p, q), errors[q] != 0);
    }
  }
}

uint32_t FlatExpander::ChannelPart(const SnapshotStore& store,
                                   FlatSnapshot parent, size_t c,
                                   const Lane::ChannelEdit& edit, Lane* lane,
                                   Candidates* out) const {
  const runtime::FlatLayout& layout = lane->layout;
  const uint32_t arity = codec_->channel_arity(c);
  const uint32_t* begin = parent.data + layout.queue_first[c];
  const uint32_t* end = c + 1 < lossy_.size()
                            ? parent.data + layout.queue_first[c + 1] - 1
                            : parent.data + parent.size;
  uint32_t count = layout.queue_len[c];
  if (edit.dequeue && count > 0) {
    begin += runtime::RelationBlockWords(begin, arity);
    --count;
  }
  std::vector<uint32_t>& words = lane->part;
  words.assign(1, count + (edit.append != nullptr ? 1 : 0));
  words.insert(words.end(), begin, end);
  if (edit.append != nullptr) {
    words.insert(words.end(), edit.append,
                 edit.append + runtime::RelationBlockWords(edit.append, arity));
  }
  return PartId(store, words.data(), words.size(), out);
}

Status FlatExpander::ExpandPeer(const SnapshotStore& store,
                                const uint32_t* from, FlatSnapshot parent,
                                size_t p, Lane* lane, Candidates* out,
                                MemoCounts* counts) const {
  WSV_ASSIGN_OR_RETURN(uint32_t* move, Move(parent, p, lane, counts));
  const uint32_t* state = move + kMoveHeader;
  const uint32_t* prev = state + move[0];
  const uint32_t* tail = prev + move[1];
  const uint32_t* errors = tail + move[2];
  const uint32_t* alt = errors + move[3];

  const runtime::FlatLayout& layout = lane->layout;
  const runtime::TransitionGenerator::PeerWiring& wiring =
      generator_->wiring(p);
  std::vector<Lane::ChannelEdit>& edits = lane->edits;
  for (size_t q = 0; q < wiring.in_channel.size(); ++q) {
    if (wiring.consumes[q]) edits[wiring.in_channel[q]].dequeue = true;
  }
  const uint32_t mover_word =
      normalization_.keep_mover ? static_cast<uint32_t>(p + 2)
                                : static_cast<uint32_t>(runtime::kNoMover + 2);

  // The successor vector before delivery: the move's state and tail
  // sections and the dequeued in-queues; the same for every delivery.
  const uint32_t section = store.peer_section(p);
  std::vector<uint32_t>& base = lane->base;
  base.assign(from, from + store.width());
  base[section] = CachedPartId(store, state, move[0], &move[4], out);
  base[section + 2] = CachedPartId(store, tail, move[2], &move[5], out);
  bool base_unseen = Unseen(base[section]) || Unseen(base[section + 2]);
  for (size_t c : wiring.in_channel) {
    if (!edits[c].dequeue || layout.queue_len[c] == 0) continue;
    const uint32_t id = ChannelPart(store, parent, c, edits[c], lane, out);
    base[store.channel_section(c)] = id;
    base_unseen = base_unseen || Unseen(id);
  }

  // The input key's selected state and prev relations: the same for every
  // delivery of this move.
  const spec::Peer& peer = generator_->composition().peers()[p];
  const ViewSelection& input_view = input_view_[p];
  std::vector<uint32_t>& input_key = lane->input_key;
  input_key.clear();
  auto select = [&](const uint32_t* at, const data::Schema& schema,
                    const std::vector<uint32_t>& relations) {
    size_t next = 0;
    for (uint32_t r = 0; r < schema.size() && next < relations.size(); ++r) {
      const uint32_t words = runtime::RelationBlockWords(
          at, static_cast<uint32_t>(schema.relation(r).arity()));
      if (relations[next] == r) {
        input_key.insert(input_key.end(), at, at + words);
        ++next;
      }
      at += words;
    }
  };
  select(state, peer.declared_state_schema(), input_view.state);
  select(prev, peer.prev_input_schema(), input_view.prev);
  const size_t bound = generator_->options().queue_bound;

  const uint32_t alternatives = *alt++;
  for (uint32_t a = 0; a < alternatives; ++a) {
    std::vector<std::pair<uint32_t, const uint32_t*>>& messages =
        lane->messages;
    messages.clear();
    const uint32_t count = *alt++;
    for (uint32_t m = 0; m < count; ++m) {
      const uint32_t channel = *alt++;
      messages.emplace_back(channel, alt);
      alt += runtime::RelationBlockWords(alt, codec_->channel_arity(channel));
    }
    assert(messages.size() < 64);

    // Delivery branches, drop before deliver (TransitionGenerator::
    // DeliverMessages). Out-queues are distinct channels, so a channel's
    // length is its parent length less the mover's dequeue.
    std::vector<uint64_t>& deliveries = lane->deliveries;
    deliveries.clear();
    auto branch = [&](auto&& self, size_t m, uint64_t mask) -> void {
      if (m == messages.size()) {
        deliveries.push_back(mask);
        return;
      }
      const uint32_t c = messages[m].first;
      const size_t length =
          layout.queue_len[c] - (edits[c].dequeue && layout.queue_len[c] > 0);
      const bool full = length >= bound;
      if (full || lossy_[c]) self(self, m + 1, mask);
      if (!full) self(self, m + 1, mask | (uint64_t{1} << m));
    };
    branch(branch, 0, 0);

    for (uint64_t mask : deliveries) {
      std::vector<uint32_t>& vec = lane->vec;
      vec = base;
      bool unseen = base_unseen;
      for (size_t m = 0; m < messages.size(); ++m) {
        const uint32_t c = messages[m].first;
        Lane::ChannelEdit& edit = edits[c];
        edit.sent = true;
        if ((mask >> m) & 1) {
          assert(edit.append == nullptr && "two messages on one channel");
          edit.append = messages[m].second;
          edit.received = true;
          const uint32_t id = ChannelPart(store, parent, c, edit, lane, out);
          vec[store.channel_section(c)] = id;
          unseen = unseen || Unseen(id);
        }
      }
      WriteHeader(from, mover_word, edits.data(), static_cast<int>(p), errors,
                  vec.data());

      // What the options rules read of the successor's view: the new state
      // and window, the in-queue heads after dequeue and delivery, the new
      // error flags.
      std::vector<uint32_t>& key = lane->key;
      key = input_key;
      for (uint32_t q : input_view.heads) {
        const size_t c = wiring.in_channel[q];
        const uint32_t arity = codec_->channel_arity(c);
        const uint32_t* head = parent.data + layout.queue_first[c];
        uint32_t length = layout.queue_len[c];
        if (edits[c].dequeue && length > 0) {
          head += runtime::RelationBlockWords(head, arity);
          --length;
        }
        if (length == 0) head = edits[c].append;
        if (head == nullptr) {
          key.push_back(1);
          key.push_back(0);
        } else {
          key.push_back(0);
          key.insert(key.end(), head,
                     head + runtime::RelationBlockWords(head, arity));
        }
      }
      for (uint32_t q : input_view.errors) key.push_back(errors[q]);
      WSV_ASSIGN_OR_RETURN(uint32_t* choices, InputChoices(p, lane, counts));
      EmitChoices(store, p, choices, unseen, lane, out, counts);

      for (const auto& [c, block] : messages) {
        edits[c].sent = edits[c].received = false;
        edits[c].append = nullptr;
      }
    }
  }
  for (size_t c : wiring.in_channel) edits[c].dequeue = false;
  return Status::Ok();
}

void FlatExpander::EmitChoices(const SnapshotStore& store, size_t p,
                               uint32_t* choices, bool unseen, Lane* lane,
                               Candidates* out, MemoCounts* counts) const {
  std::vector<uint32_t>& vec = lane->vec;
  const uint32_t slot = store.peer_section(p) + 1;
  const uint32_t num_choices = *choices++;
  // One choice costs what a probe does, and a vector with an unseen section
  // is fresh whatever the choice: neither is memoized.
  Lane::ChoiceMemo* memo = nullptr;
  size_t hash = 0;
  if (num_choices >= 2 && !unseen) {
    memo = &lane->choices[p];
    ++counts->choice_lookups;
    vec[slot] = FlatIdSet::kEmpty;
    hash = store.Hash(vec.data());
    const uint32_t* key = vec.data();
    const uint32_t* end = key + store.width();
    const uint32_t entry = memo->index.Find(hash, [&](uint32_t e) {
      const uint32_t* stored = store.vector(memo->ids[memo->begin[e]]);
      return std::equal(key, key + slot, stored) &&
             std::equal(key + slot + 1, end, stored + slot + 1);
    });
    if (entry != FlatIdSet::kEmpty) {
      out->ids.insert(out->ids.end(), memo->ids.begin() + memo->begin[entry],
                      memo->ids.begin() + memo->begin[entry + 1]);
      return;
    }
    ++counts->choice_evals;
  }
  const size_t first = out->ids.size();
  for (uint32_t i = 0; i < num_choices; ++i) {
    const uint32_t words = choices[0];
    const uint32_t id =
        CachedPartId(store, choices + 2, words, &choices[1], out);
    vec[slot] = id;
    Emit(store, vec.data(), unseen || Unseen(id), out);
    choices += 2 + words;
  }
  if (memo == nullptr ||
      std::find(out->ids.begin() + first, out->ids.end(), FlatIdSet::kEmpty) !=
          out->ids.end()) {
    return;
  }
  memo->ids.insert(memo->ids.end(), out->ids.begin() + first, out->ids.end());
  memo->index.Insert(hash, static_cast<uint32_t>(memo->begin.size() - 1));
  memo->begin.push_back(static_cast<uint32_t>(memo->ids.size()));
}

void FlatExpander::EmitEnv(const SnapshotStore& store, const uint32_t* from,
                           FlatSnapshot parent, Lane* lane,
                           const Lane::ChannelEdit* edits,
                           Candidates* out) const {
  const uint32_t mover_word = static_cast<uint32_t>(
      (normalization_.keep_mover ? runtime::kEnvMover : runtime::kNoMover) +
      2);
  std::vector<uint32_t>& vec = lane->vec;
  vec.assign(from, from + store.width());
  WriteHeader(from, mover_word, edits, -1, nullptr, vec.data());
  bool unseen = false;
  for (size_t c = 0; c < lossy_.size(); ++c) {
    if (edits[c].append == nullptr &&
        (!edits[c].dequeue || lane->layout.queue_len[c] == 0)) {
      continue;
    }
    const uint32_t id = ChannelPart(store, parent, c, edits[c], lane, out);
    vec[store.channel_section(c)] = id;
    unseen = unseen || Unseen(id);
  }
  Emit(store, vec.data(), unseen, out);
}

void FlatExpander::ExpandEnv(const SnapshotStore& store, const uint32_t* from,
                             FlatSnapshot parent, Lane* lane,
                             Candidates* out) const {
  if (!generator_->options().allow_env_moves) return;
  const runtime::FlatLayout& layout = lane->layout;
  const size_t bound = generator_->options().queue_bound;
  const size_t channels = lossy_.size();

  // As TransitionGenerator::EnvSuccessors: a feed channel's "sent but
  // dropped" successor comes once, before its deliveries.
  if (generator_->options().env_single_action) {
    std::vector<Lane::ChannelEdit>& edits = lane->edits;
    EmitEnv(store, from, parent, lane, edits.data(), out);  // stutter
    for (size_t c : env_consume_) {
      if (layout.queue_len[c] == 0) continue;
      edits[c].dequeue = true;
      EmitEnv(store, from, parent, lane, edits.data(), out);
      edits[c] = {};
    }
    for (size_t c : env_feed_) {
      const bool full = layout.queue_len[c] >= bound;
      const auto& candidates = env_candidates_[c];
      if ((lossy_[c] || full) && !candidates.empty()) {
        edits[c].sent = true;
        EmitEnv(store, from, parent, lane, edits.data(), out);
      }
      for (const std::vector<uint32_t>& msg : candidates) {
        if (full) break;
        edits[c] = {false, msg.data(), true, true};
        EmitEnv(store, from, parent, lane, edits.data(), out);
      }
      edits[c] = {};
    }
    return;
  }

  // Multi-queue moves: consume any subset of heads, then per feed channel
  // feed nothing, drop, or deliver one candidate.
  std::vector<std::vector<Lane::ChannelEdit>>& bases = lane->env_bases;
  bases.clear();
  const size_t masks = size_t{1} << env_consume_.size();
  for (size_t mask = 0; mask < masks; ++mask) {
    std::vector<Lane::ChannelEdit>& base = bases.emplace_back(channels);
    for (size_t i = 0; i < env_consume_.size(); ++i) {
      if ((mask >> i) & 1) base[env_consume_[i]].dequeue = true;
    }
  }
  for (size_t c : env_feed_) {
    const bool full = layout.queue_len[c] >= bound;
    const auto& candidates = env_candidates_[c];
    std::vector<std::vector<Lane::ChannelEdit>> expanded;
    for (const std::vector<Lane::ChannelEdit>& base : bases) {
      expanded.push_back(base);  // feed nothing
      if ((lossy_[c] || full) && !candidates.empty()) {
        expanded.push_back(base);
        expanded.back()[c].sent = true;
      }
      for (const std::vector<uint32_t>& msg : candidates) {
        if (full) break;
        expanded.push_back(base);
        expanded.back()[c] = {false, msg.data(), true, true};
      }
    }
    bases = std::move(expanded);
  }
  for (const std::vector<Lane::ChannelEdit>& base : bases) {
    EmitEnv(store, from, parent, lane, base.data(), out);
  }
}

}  // namespace wsv::verifier
