#include "runtime/snapshot_view.h"

namespace wsv::runtime {

namespace {

data::Relation PropRelation(bool value) {
  data::Relation r(0);
  if (value) r.Insert(data::Tuple{});
  return r;
}

/// The relation `part` denotes at `snap`.
data::Relation PartRelation(const spec::Composition& comp,
                            const std::vector<data::Instance>& databases,
                            const Snapshot& snap, const SnapshotPart& part) {
  using Kind = SnapshotPart::Kind;
  switch (part.kind) {
    case Kind::kDatabase:
      return databases[part.peer].relation(part.index);
    case Kind::kRelation:
      return PeerPart(snap.peers[part.peer], part.part).relation(part.index);
    case Kind::kMove:
      return PropRelation(snap.mover == part.peer);
    case Kind::kSendError: {
      const std::vector<bool>& errors = snap.peers[part.peer].send_errors;
      return PropRelation(part.index < errors.size() && errors[part.index]);
    }
    case Kind::kReceived:
      return PropRelation(snap.received[part.index]);
    case Kind::kSent:
      return PropRelation(snap.sent[part.index]);
    case Kind::kQueueEmpty:
      return PropRelation(snap.channels[part.index].empty());
    case Kind::kQueueFirst:
    case Kind::kQueueLast: {
      const auto& queue = snap.channels[part.index];
      if (queue.empty()) {
        return data::Relation(comp.channels()[part.index].arity());
      }
      return part.kind == Kind::kQueueFirst ? queue.front() : queue.back();
    }
  }
  return data::Relation();
}

}  // namespace

std::vector<PropertySymbol> PropertySymbols(const spec::Composition& comp) {
  using Kind = SnapshotPart::Kind;
  // Bindings in shadowing order: a later binding of a name replaces an
  // earlier one.
  std::vector<PropertySymbol> bindings;
  auto bind = [&](std::string name, Kind kind, int32_t peer, uint32_t part,
                  uint32_t index) {
    bindings.push_back(
        PropertySymbol{std::move(name), SnapshotPart{kind, peer, part, index}});
  };
  // Single-peer compositions also expose unqualified names (matching
  // Composition::Classify's resolution rule).
  const bool single_peer = comp.peers().size() == 1;
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const spec::Peer& peer = comp.peers()[p];
    const int32_t pi = static_cast<int32_t>(p);
    const std::string prefix = peer.name() + ".";
    const data::Schema* parts[4] = {
        &peer.declared_state_schema(), &peer.input_schema(),
        &peer.prev_input_schema(), &peer.action_schema()};
    for (const std::string& pfx :
         single_peer ? std::vector<std::string>{prefix, ""}
                     : std::vector<std::string>{prefix}) {
      const data::Schema& db = peer.database_schema();
      for (size_t r = 0; r < db.size(); ++r) {
        bind(pfx + db.relation(r).name, Kind::kDatabase, pi, 0,
             static_cast<uint32_t>(r));
      }
      for (uint32_t part = 0; part < 4; ++part) {
        for (size_t r = 0; r < parts[part]->size(); ++r) {
          bind(pfx + parts[part]->relation(r).name, Kind::kRelation, pi, part,
               static_cast<uint32_t>(r));
        }
      }
    }
    bind(spec::Composition::MovePropName(peer.name()), Kind::kMove, pi, 0, 0);
    for (size_t q = 0; q < peer.out_queues().size(); ++q) {
      bind(prefix + "error_" + peer.out_queues()[q].name, Kind::kSendError, pi,
           0, static_cast<uint32_t>(q));
    }
  }
  bind(spec::Composition::EnvMovePropName(), Kind::kMove, kEnvMover, 0, 0);

  for (size_t c = 0; c < comp.channels().size(); ++c) {
    const spec::Channel& channel = comp.channels()[c];
    const uint32_t ci = static_cast<uint32_t>(c);
    if (channel.receiver != spec::Channel::kEnvironment) {
      const std::string& rname = comp.peers()[channel.receiver].name();
      bind(rname + "." + channel.name, Kind::kQueueFirst, 0, 0, ci);
      bind(rname + "." + spec::QueueEmptyStateName(channel.name),
           Kind::kQueueEmpty, 0, 0, ci);
    } else {
      bind("env." + channel.name, Kind::kQueueFirst, 0, 0, ci);
    }
    if (channel.sender != spec::Channel::kEnvironment) {
      const std::string& sname = comp.peers()[channel.sender].name();
      bind(sname + "." + channel.name, Kind::kQueueLast, 0, 0, ci);
    } else {
      bind("env." + channel.name, Kind::kQueueLast, 0, 0, ci);
    }
    bind(spec::Composition::ReceivedPropName(channel.name), Kind::kReceived, 0,
         0, ci);
    bind("sent_" + channel.name, Kind::kSent, 0, 0, ci);
  }

  // Keep the last binding of each name.
  std::stable_sort(bindings.begin(), bindings.end(),
                   [](const PropertySymbol& a, const PropertySymbol& b) {
                     return a.name < b.name;
                   });
  std::vector<PropertySymbol> symbols;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i + 1 < bindings.size() && bindings[i + 1].name == bindings[i].name) {
      continue;
    }
    symbols.push_back(std::move(bindings[i]));
  }
  return symbols;
}

fo::MapStructure BuildPropertyStructure(
    const spec::Composition& comp,
    const std::vector<data::Instance>& databases, const Snapshot& snap,
    const data::Domain& domain) {
  fo::MapStructure structure;
  structure.SetDomain(domain);
  for (PropertySymbol& symbol : PropertySymbols(comp)) {
    structure.Set(std::move(symbol.name),
                  PartRelation(comp, databases, snap, symbol.part));
  }
  return structure;
}

fo::MapStructure BuildPropertyStructure(
    const spec::Composition& comp,
    const std::vector<data::Instance>& databases,
    const FlatSnapshotCodec& codec, FlatSnapshot flat,
    const data::Domain& domain) {
  Snapshot snap;
  codec.Decode(flat, &snap);
  return BuildPropertyStructure(comp, databases, snap, domain);
}

}  // namespace wsv::runtime
