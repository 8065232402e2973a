// The memo side of FlatExpander: which view parts each memo key holds,
// the move, rule and input-choice memos, and decoding a key back into a
// view for the rules that miss. flat_expansion.cc splices the successors;
// it is kept apart because GCC stopped inlining the splice loop's
// vector::insert calls once this code shared its translation unit
// (about 5% of gen_mix wall time at -O3).

#include <set>
#include <string>

#include "verifier/flat_expansion.h"

namespace wsv::verifier {

namespace {

using runtime::FlatSnapshot;
using runtime::SnapshotPart;

/// The move_part_arities_ entry of a one-word flag part.
constexpr uint32_t kFlagPart = UINT32_MAX;

}  // namespace

template <typename Encode>
Result<const uint32_t*> FlatExpander::Memoized(
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

Result<const uint32_t*> FlatExpander::Move(FlatSnapshot parent, size_t p,
                                           Lane* lane,
                                           MemoCounts* counts) const {
  std::vector<uint32_t>& key = lane->key;
  key.clear();
  for (const SnapshotPart& part : move_parts_[p]) {
    codec_->AppendPart(parent, lane->layout, part, &key);
  }
  ++counts->move_lookups;
  return Memoized(&lane->moves[p], key, &counts->move_evals,
                  [&](std::vector<uint32_t>* out) -> Status {
    WSV_ASSIGN_OR_RETURN(runtime::PeerMove move,
                         EvaluateMove(p, lane, counts));
    std::vector<uint32_t>& v = *out;
    const size_t start = v.size();
    v.resize(start + kMoveHeader);
    auto append_all = [&](const data::Instance& inst,
                          const std::vector<bool>* keep, bool keep_all) {
      for (size_t r = 0; r < inst.size(); ++r) {
        if (keep_all && (keep == nullptr || r >= keep->size() || (*keep)[r])) {
          runtime::AppendRelationWords(inst.relation(r), &v);
        } else {
          v.push_back(0);  // normalized away: the empty relation
        }
      }
    };
    append_all(move.state, nullptr, true);
    const size_t state_end = v.size();
    append_all(move.prev, nullptr, true);
    const size_t prev_end = v.size();
    const std::vector<bool>* keep_prev =
        normalization_.keep_prev.empty() ? nullptr
                                         : &normalization_.keep_prev[p];
    append_all(move.prev, keep_prev, true);
    append_all(move.action, nullptr, normalization_.keep_actions);
    const size_t tail_end = v.size();
    for (bool error : move.send_errors) v.push_back(error ? 1 : 0);
    v.push_back(static_cast<uint32_t>(move.sends.size()));
    for (const std::vector<runtime::OutgoingMessage>& alt : move.sends) {
      v.push_back(static_cast<uint32_t>(alt.size()));
      for (const runtime::OutgoingMessage& msg : alt) {
        v.push_back(static_cast<uint32_t>(msg.channel));
        runtime::AppendRelationWords(msg.content, &v);
      }
    }
    v[start] = static_cast<uint32_t>(state_end - start - kMoveHeader);
    v[start + 1] = static_cast<uint32_t>(prev_end - state_end);
    v[start + 2] = static_cast<uint32_t>(tail_end - prev_end);
    v[start + 3] = static_cast<uint32_t>(move.send_errors.size());
    return Status::Ok();
  });
}

Result<runtime::PeerMove> FlatExpander::EvaluateMove(
    size_t p, Lane* lane, MemoCounts* counts) const {
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
  rule_keys.clear();
  misses.clear();
  lane->rule_missed.assign(rules.size(), false);
  std::vector<data::Relation> results;
  results.reserve(rules.size());
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
    data::Relation& result = results.emplace_back(rules[i]->head_vars.size());
    if (id == FlatIdSet::kEmpty) {
      misses.push_back({i, begin, end, hash});
      lane->rule_missed[i] = true;
    } else {
      runtime::ReadRelationWords(
          memos[i].values.data() + memos[i].value_begin[id],
          static_cast<uint32_t>(result.arity()), &result);
    }
  }
  counts->rule_lookups += rules.size();
  counts->rule_evals += misses.size();

  runtime::LocalView view = DecodeView(p, move_view_[p], key.data());
  if (!misses.empty()) {
    WSV_RETURN_IF_ERROR(generator_->EvaluateMoveRules(
        p, view, &lane->rule_missed, &results));
    for (const Lane::RuleMiss& miss : misses) {
      Lane::Memo& memo = memos[miss.rule];
      runtime::AppendRelationWords(results[miss.rule], &memo.values);
      memo.value_begin.push_back(static_cast<uint32_t>(memo.values.size()));
      memo.keys.Add(rule_keys.data() + miss.begin, miss.end - miss.begin,
                    miss.hash);
    }
  }
  return generator_->AssembleMove(p, std::move(view), std::move(results));
}

Result<const uint32_t*> FlatExpander::InputChoices(size_t p, Lane* lane,
                                                   MemoCounts* counts) const {
  const std::vector<uint32_t>& key = lane->key;
  ++counts->input_lookups;
  return Memoized(&lane->inputs[p], key, &counts->input_evals,
                  [&](std::vector<uint32_t>* out) -> Status {
    WSV_ASSIGN_OR_RETURN(
        std::vector<data::Instance> choices,
        generator_->InputChoices(p,
                                 DecodeView(p, input_view_[p], key.data())));
    // [choices, per choice: [words, the input block]].
    std::vector<uint32_t>& v = *out;
    v.push_back(static_cast<uint32_t>(choices.size()));
    for (const data::Instance& input : choices) {
      const size_t at = v.size();
      v.push_back(0);
      for (size_t r = 0; r < input.size(); ++r) {
        runtime::AppendRelationWords(input.relation(r), &v);
      }
      v[at] = static_cast<uint32_t>(v.size() - at - 1);
    }
    return Status::Ok();
  });
}

}  // namespace wsv::verifier
