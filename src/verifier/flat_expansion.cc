// The splice side of FlatExpander: successor spans built from the parent
// span and the memoized moves and input choices (flat_expansion_memo.cc).

#include "verifier/flat_expansion.h"

#include <cassert>

namespace wsv::verifier {

namespace {

using runtime::FlatSnapshot;

}  // namespace

Status FlatExpander::Expand(FlatSnapshot parent, Lane* lane, SpanList* out,
                            MemoCounts* counts) const {
  const size_t peers = move_view_.size();
  if (lane->moves.size() != peers) {
    lane->moves.resize(peers);
    lane->rules.resize(peers);
    for (size_t p = 0; p < peers; ++p) {
      lane->rules[p].resize(rule_parts_[p].size());
    }
    lane->inputs.resize(peers);
    lane->edits.assign(codec_->composition().channels().size(), {});
  }
  codec_->Locate(parent, &lane->layout);
  for (size_t p = 0; p < peers; ++p) {
    WSV_RETURN_IF_ERROR(ExpandPeer(parent, p, lane, out, counts));
  }
  ExpandEnv(parent, lane, out);
  return Status::Ok();
}

void FlatExpander::AppendHeader(FlatSnapshot parent, uint32_t mover_word,
                                const Lane::ChannelEdit* edits, int p,
                                const uint32_t* errors,
                                std::vector<uint32_t>* out) const {
  out->push_back(mover_word);
  const size_t at = out->size();
  out->insert(out->end(), parent.data + 1,
              parent.data + 1 + codec_->event_words());
  uint32_t* events = out->data() + at;
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

void FlatExpander::AppendChannels(FlatSnapshot parent,
                                  const runtime::FlatLayout& layout,
                                  const Lane::ChannelEdit* edits,
                                  std::vector<uint32_t>* out) const {
  const size_t channels = lossy_.size();
  for (size_t c = 0; c < channels; ++c) {
    const uint32_t arity = codec_->channel_arity(c);
    const uint32_t* from = parent.data + layout.queue_first[c];
    const uint32_t* end = c + 1 < channels
                              ? parent.data + layout.queue_first[c + 1] - 1
                              : parent.data + parent.size;
    uint32_t count = layout.queue_len[c];
    if (edits[c].dequeue && count > 0) {
      from += runtime::RelationBlockWords(from, arity);
      --count;
    }
    const uint32_t* append = edits[c].append;
    out->push_back(count + (append != nullptr ? 1 : 0));
    out->insert(out->end(), from, end);
    if (append != nullptr) {
      out->insert(out->end(), append,
                  append + runtime::RelationBlockWords(append, arity));
    }
  }
}

Status FlatExpander::ExpandPeer(FlatSnapshot parent, size_t p, Lane* lane,
                                SpanList* out, MemoCounts* counts) const {
  WSV_ASSIGN_OR_RETURN(const uint32_t* move, Move(parent, p, lane, counts));
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
  const auto [block_begin, block_end] = codec_->PeerBlock(layout, p);
  const uint32_t mover_word =
      normalization_.keep_mover ? static_cast<uint32_t>(p + 2)
                                : static_cast<uint32_t>(runtime::kNoMover + 2);

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
      for (size_t m = 0; m < messages.size(); ++m) {
        Lane::ChannelEdit& edit = edits[messages[m].first];
        edit.sent = true;
        if ((mask >> m) & 1) {
          assert(edit.append == nullptr && "two messages on one channel");
          edit.append = messages[m].second;
          edit.received = true;
        }
      }

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
      WSV_ASSIGN_OR_RETURN(const uint32_t* choices,
                           InputChoices(p, lane, counts));

      std::vector<uint32_t>& head = lane->head;
      head.clear();
      AppendHeader(parent, mover_word, edits.data(), static_cast<int>(p),
                   errors, &head);
      head.insert(head.end(), parent.data + 1 + codec_->event_words(),
                  parent.data + block_begin);
      head.insert(head.end(), state, prev);
      std::vector<uint32_t>& rest = lane->tail;
      rest.assign(tail, errors);
      rest.insert(rest.end(), parent.data + block_end,
                  parent.data + layout.queues);
      AppendChannels(parent, layout, edits.data(), &rest);

      const uint32_t num_choices = *choices++;
      for (uint32_t i = 0; i < num_choices; ++i) {
        const uint32_t words = *choices++;
        out->words.insert(out->words.end(), head.begin(), head.end());
        out->words.insert(out->words.end(), choices, choices + words);
        out->words.insert(out->words.end(), rest.begin(), rest.end());
        out->begin.push_back(static_cast<uint32_t>(out->words.size()));
        choices += words;
      }

      for (const auto& [c, block] : messages) {
        edits[c].sent = edits[c].received = false;
        edits[c].append = nullptr;
      }
    }
  }
  for (size_t c : wiring.in_channel) edits[c].dequeue = false;
  return Status::Ok();
}

void FlatExpander::EmitEnv(FlatSnapshot parent, const Lane& lane,
                           const Lane::ChannelEdit* edits,
                           SpanList* out) const {
  const uint32_t mover_word = static_cast<uint32_t>(
      (normalization_.keep_mover ? runtime::kEnvMover : runtime::kNoMover) +
      2);
  AppendHeader(parent, mover_word, edits, -1, nullptr, &out->words);
  out->words.insert(out->words.end(),
                    parent.data + 1 + codec_->event_words(),
                    parent.data + lane.layout.queues);
  AppendChannels(parent, lane.layout, edits, &out->words);
  out->begin.push_back(static_cast<uint32_t>(out->words.size()));
}

void FlatExpander::ExpandEnv(FlatSnapshot parent, Lane* lane,
                             SpanList* out) const {
  if (!generator_->options().allow_env_moves) return;
  const runtime::FlatLayout& layout = lane->layout;
  const size_t bound = generator_->options().queue_bound;
  const size_t channels = lossy_.size();

  // As TransitionGenerator::EnvSuccessors: a feed channel's "sent but
  // dropped" successor comes once, before its deliveries.
  if (generator_->options().env_single_action) {
    std::vector<Lane::ChannelEdit>& edits = lane->edits;
    EmitEnv(parent, *lane, edits.data(), out);  // stutter
    for (size_t c : env_consume_) {
      if (layout.queue_len[c] == 0) continue;
      edits[c].dequeue = true;
      EmitEnv(parent, *lane, edits.data(), out);
      edits[c] = {};
    }
    for (size_t c : env_feed_) {
      const bool full = layout.queue_len[c] >= bound;
      const auto& candidates = env_candidates_[c];
      if ((lossy_[c] || full) && !candidates.empty()) {
        edits[c].sent = true;
        EmitEnv(parent, *lane, edits.data(), out);
      }
      for (const std::vector<uint32_t>& msg : candidates) {
        if (full) break;
        edits[c] = {false, msg.data(), true, true};
        EmitEnv(parent, *lane, edits.data(), out);
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
    EmitEnv(parent, *lane, base.data(), out);
  }
}

}  // namespace wsv::verifier
