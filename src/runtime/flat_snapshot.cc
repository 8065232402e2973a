#include "runtime/flat_snapshot.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>

#include "data/schema.h"

namespace wsv::runtime {

namespace {

/// The four per-peer instance parts, in encode order.
const data::Schema& PartSchema(const spec::Peer& peer, size_t part) {
  switch (part) {
    case 0:
      return peer.declared_state_schema();
    case 1:
      return peer.input_schema();
    case 2:
      return peer.prev_input_schema();
    default:
      return peer.action_schema();
  }
}

data::Instance& PartInstance(PeerConfig& cfg, size_t part) {
  switch (part) {
    case 0:
      return cfg.state;
    case 1:
      return cfg.input;
    case 2:
      return cfg.prev;
    default:
      return cfg.action;
  }
}

}  // namespace

void AppendRelationWords(const data::Relation& rel,
                         std::vector<uint32_t>* out) {
  out->push_back(static_cast<uint32_t>(rel.size()));
  for (const data::Tuple& t : rel.tuples()) {
    for (data::Value v : t) out->push_back(v);
  }
}

const uint32_t* ReadRelationWords(const uint32_t* at, uint32_t arity,
                                  data::Relation* out) {
  const uint32_t count = *at++;
  std::vector<data::Tuple> tuples;
  tuples.reserve(count);
  for (uint32_t t = 0; t < count; ++t, at += arity) {
    tuples.emplace_back(at, arity);
  }
  out->AssignSorted(std::move(tuples));
  return at;
}

void AppendStateUpdate(const uint32_t* state, const uint32_t* insert,
                       const uint32_t* remove, uint32_t arity,
                       std::vector<uint32_t>* out) {
  // The next tuple of a block and the tuples left in it; a missing rule is
  // an empty block.
  struct Cursor {
    const uint32_t* at;
    uint32_t left;
  };
  auto open = [](const uint32_t* block) {
    return block == nullptr ? Cursor{nullptr, 0} : Cursor{block + 1, block[0]};
  };
  Cursor s = open(state), ins = open(insert), del = open(remove);
  if (ins.left == 0 && del.left == 0) {
    out->insert(out->end(), state, state + RelationBlockWords(state, arity));
    return;
  }
  const size_t count_at = out->size();
  out->push_back(0);
  uint32_t count = 0;
  auto less = [arity](const uint32_t* a, const uint32_t* b) {
    return std::lexicographical_compare(a, a + arity, b, b + arity);
  };
  // A tuple only in the delete block is out, so the merge ends with S and φ+.
  while (s.left > 0 || ins.left > 0) {
    const uint32_t* min = nullptr;
    for (const Cursor* c : {&s, &ins, &del}) {
      if (c->left > 0 && (min == nullptr || less(c->at, min))) min = c->at;
    }
    // Takes the cursor's head if it is the smallest tuple.
    auto take = [&](Cursor* c) {
      if (c->left == 0 || !std::equal(min, min + arity, c->at)) return false;
      c->at += arity;
      --c->left;
      return true;
    };
    const bool in_s = take(&s), in_ins = take(&ins), in_del = take(&del);
    if ((in_ins && !in_del) || (in_s && (in_ins || !in_del))) {
      out->insert(out->end(), min, min + arity);
      ++count;
    }
  }
  (*out)[count_at] = count;
}

const data::Instance& PeerPart(const PeerConfig& cfg, uint32_t part) {
  switch (part) {
    case 0:
      return cfg.state;
    case 1:
      return cfg.input;
    case 2:
      return cfg.prev;
    default:
      return cfg.action;
  }
}

FlatSnapshotCodec::FlatSnapshotCodec(const spec::Composition* comp)
    : comp_(comp) {
  for (const spec::Peer& peer : comp_->peers()) {
    for (size_t part = 0; part < 4; ++part) {
      part_bases_.push_back(static_cast<uint32_t>(part_arities_.size()));
      const data::Schema& schema = PartSchema(peer, part);
      for (size_t r = 0; r < schema.size(); ++r) {
        part_arities_.push_back(
            static_cast<uint32_t>(schema.relation(r).arity()));
      }
    }
    send_error_counts_.push_back(
        static_cast<uint32_t>(peer.out_queues().size()));
  }
  for (const spec::Channel& channel : comp_->channels()) {
    channel_arities_.push_back(static_cast<uint32_t>(channel.arity()));
  }
  event_bits_ = 2 * channel_arities_.size();  // received + sent
  for (uint32_t n : send_error_counts_) {
    send_error_bases_.push_back(static_cast<uint32_t>(event_bits_));
    event_bits_ += n;
  }
  event_words_ = (event_bits_ + 31) / 32;
}

void FlatSnapshotCodec::Encode(const Snapshot& snap,
                               std::vector<uint32_t>* out) const {
  out->clear();
  out->push_back(static_cast<uint32_t>(snap.mover + 2));

  // Event bits: received, sent, then every peer's send_errors.
  size_t bit = 0;
  size_t base = out->size();
  out->resize(base + event_words_, 0);
  auto push_bit = [&](bool value) {
    if (value) (*out)[base + bit / 32] |= 1u << (bit % 32);
    ++bit;
  };
  for (bool b : snap.received) push_bit(b);
  for (bool b : snap.sent) push_bit(b);
  for (const PeerConfig& cfg : snap.peers) {
    for (bool b : cfg.send_errors) push_bit(b);
  }
  assert(bit == event_bits_ && "snapshot shape does not match composition");

  for (const PeerConfig& cfg : snap.peers) {
    for (size_t part = 0; part < 4; ++part) {
      const data::Instance& inst = PeerPart(cfg, static_cast<uint32_t>(part));
      for (size_t r = 0; r < inst.size(); ++r) {
        AppendRelationWords(inst.relation(r), out);
      }
    }
  }
  for (const auto& queue : snap.channels) {
    out->push_back(static_cast<uint32_t>(queue.size()));
    for (const data::Relation& msg : queue) AppendRelationWords(msg, out);
  }
}

void FlatSnapshotCodec::Decode(FlatSnapshot flat, Snapshot* out) const {
  const uint32_t* p = flat.data;
  [[maybe_unused]] const uint32_t* end = flat.data + flat.size;
  out->mover = static_cast<int>(*p++) - 2;

  const uint32_t* events = p;
  p += event_words_;
  size_t bit = 0;
  auto read_bit = [&]() {
    bool value = (events[bit / 32] >> (bit % 32)) & 1u;
    ++bit;
    return value;
  };

  size_t num_channels = channel_arities_.size();
  out->received.resize(num_channels);
  out->sent.resize(num_channels);
  for (size_t c = 0; c < num_channels; ++c) out->received[c] = read_bit();
  for (size_t c = 0; c < num_channels; ++c) out->sent[c] = read_bit();

  const auto& peers = comp_->peers();
  out->peers.resize(peers.size());
  for (size_t i = 0; i < peers.size(); ++i) {
    PeerConfig& cfg = out->peers[i];
    cfg.send_errors.resize(send_error_counts_[i]);
    for (size_t q = 0; q < send_error_counts_[i]; ++q) {
      cfg.send_errors[q] = read_bit();
    }
  }

  size_t flat_rel = 0;
  for (size_t i = 0; i < peers.size(); ++i) {
    PeerConfig& cfg = out->peers[i];
    for (size_t part = 0; part < 4; ++part) {
      const data::Schema& schema = PartSchema(peers[i], part);
      data::Instance& inst = PartInstance(cfg, part);
      if (inst.schema() != &schema) inst = data::Instance(&schema);
      for (size_t r = 0; r < schema.size(); ++r, ++flat_rel) {
        p = ReadRelationWords(p, part_arities_[flat_rel], &inst.relation(r));
      }
    }
  }

  out->channels.resize(num_channels);
  for (size_t c = 0; c < num_channels; ++c) {
    uint32_t arity = channel_arities_[c];
    uint32_t messages = *p++;
    auto& queue = out->channels[c];
    queue.clear();
    queue.reserve(messages);
    for (uint32_t m = 0; m < messages; ++m) {
      data::Relation msg(arity);
      p = ReadRelationWords(p, arity, &msg);
      queue.push_back(std::move(msg));
    }
  }
  assert(p == end && "flat snapshot span length mismatch");
}

void FlatSnapshotCodec::Locate(FlatSnapshot flat, FlatLayout* layout) const {
  const uint32_t* base = flat.data;
  uint32_t at = 1 + static_cast<uint32_t>(event_words_);
  layout->relation.resize(part_arities_.size());
  for (size_t r = 0; r < part_arities_.size(); ++r) {
    layout->relation[r] = at;
    at += 1 + base[at] * part_arities_[r];
  }
  layout->queues = at;
  const size_t num_channels = channel_arities_.size();
  layout->queue_len.resize(num_channels);
  layout->queue_first.resize(num_channels);
  layout->queue_last.resize(num_channels);
  for (size_t c = 0; c < num_channels; ++c) {
    const uint32_t messages = base[at++];
    layout->queue_len[c] = messages;
    layout->queue_first[c] = at;
    layout->queue_last[c] = at;
    for (uint32_t m = 0; m < messages; ++m) {
      layout->queue_last[c] = at;
      at += 1 + base[at] * channel_arities_[c];
    }
  }
  assert(at == flat.size && "flat snapshot span length mismatch");
}

void FlatSnapshotCodec::Sections(FlatSnapshot flat, const FlatLayout& layout,
                                 std::vector<uint32_t>* bounds) const {
  bounds->clear();
  for (size_t peer = 0; peer < send_error_counts_.size(); ++peer) {
    for (size_t part = 0; part < 3; ++part) {
      const uint32_t r = part_bases_[peer * 4 + part];
      bounds->push_back(r < layout.relation.size() ? layout.relation[r]
                                                   : layout.queues);
    }
  }
  for (uint32_t first : layout.queue_first) bounds->push_back(first - 1);
  bounds->push_back(flat.size);
}

void FlatSnapshotCodec::AppendPart(FlatSnapshot flat, const FlatLayout& layout,
                                   const SnapshotPart& part,
                                   std::vector<uint32_t>* out) const {
  const uint32_t* base = flat.data;
  auto append_block = [&](uint32_t at, uint32_t arity) {
    const uint32_t* begin = base + at;
    out->insert(out->end(), begin, begin + 1 + begin[0] * arity);
  };
  auto append_bit = [&](size_t bit) {
    out->push_back((base[1 + bit / 32] >> (bit % 32)) & 1u);
  };
  const size_t num_channels = channel_arities_.size();
  using Kind = SnapshotPart::Kind;
  switch (part.kind) {
    case Kind::kDatabase:
      return;
    case Kind::kRelation: {
      const uint32_t r = part_bases_[part.peer * 4 + part.part] + part.index;
      append_block(layout.relation[r], part_arities_[r]);
      return;
    }
    case Kind::kMove:
      out->push_back(static_cast<int>(base[0]) - 2 == part.peer ? 1u : 0u);
      return;
    case Kind::kSendError:
      append_bit(send_error_bases_[part.peer] + part.index);
      return;
    case Kind::kReceived:
      append_bit(part.index);
      return;
    case Kind::kSent:
      append_bit(num_channels + part.index);
      return;
    case Kind::kQueueEmpty:
      out->push_back(layout.queue_len[part.index] == 0 ? 1u : 0u);
      return;
    case Kind::kQueueFirst:
    case Kind::kQueueLast:
      if (layout.queue_len[part.index] == 0) {
        out->push_back(0);  // the empty relation
      } else {
        append_block(part.kind == Kind::kQueueFirst
                         ? layout.queue_first[part.index]
                         : layout.queue_last[part.index],
                     channel_arities_[part.index]);
      }
      return;
  }
}

}  // namespace wsv::runtime
