// Property tests for the canonical flat snapshot encoding
// (src/runtime/flat_snapshot.*): randomized round-trips through
// Encode/Decode and the hash/equality consistency contract the intern
// table relies on (span equality <=> snapshot equality, equal spans =>
// equal hashes), and the block-level state update against the relation
// algebra. Registered under the `flat` ctest label.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "runtime/flat_snapshot.h"
#include "runtime/snapshot.h"
#include "runtime/transition.h"
#include "spec/parser.h"

namespace wsv::runtime {
namespace {

// Two peers, a binary channel, an arity-2 state relation, a nullary
// proposition-style relation, and two out-queues on one peer — exercises
// every encoder feature: multi-word event bits stay small but send_errors
// spans two queues, relations span arities 0..2, and channel messages are
// relations themselves.
constexpr char kSpec[] = R"(
peer Requester {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); seen(x, y); ready(); }
  inqueue flat  { resp(x, y); }
  outqueue flat { req(x); }
  outqueue flat { note(x); }
  rules {
    options ask(x) :- item(x);
    send req(x) :- ask(x);
    send note(x) :- ask(x);
    insert got(x) :- exists y: ?resp(x, y);
  }
}
peer Responder {
  inqueue flat  { req(x); }
  inqueue flat  { note(x); }
  outqueue flat { resp(x, y); }
  rules {
    send resp(x, y) :- ?req(x) and ?note(y);
  }
}
)";

spec::Composition MustParse(const char* source) {
  auto comp = spec::ParseComposition(source);
  EXPECT_TRUE(comp.ok()) << comp.status().ToString();
  return std::move(*comp);
}

/// Fills `s` with pseudo-random but schema-valid content: tuples in every
/// relation part, queued messages, event bits, and a random mover.
void Randomize(const spec::Composition& comp, std::mt19937& rng,
               Snapshot* s) {
  auto value = [&] { return std::uniform_int_distribution<data::Value>(0, 7)(rng); };
  auto coin = [&] { return std::uniform_int_distribution<int>(0, 1)(rng) == 1; };
  auto fill = [&](data::Relation& rel, size_t max_tuples) {
    size_t n = std::uniform_int_distribution<size_t>(0, max_tuples)(rng);
    for (size_t t = 0; t < n; ++t) {
      std::vector<data::Value> vals(rel.arity());
      for (data::Value& v : vals) v = value();
      rel.Insert(data::Tuple(std::move(vals)));
    }
  };
  for (PeerConfig& peer : s->peers) {
    for (data::Instance* inst :
         {&peer.state, &peer.input, &peer.prev, &peer.action}) {
      for (size_t r = 0; r < inst->size(); ++r) fill(inst->relation(r), 3);
    }
    for (size_t q = 0; q < peer.send_errors.size(); ++q) {
      peer.send_errors[q] = coin();
    }
  }
  for (size_t c = 0; c < s->channels.size(); ++c) {
    size_t msgs = std::uniform_int_distribution<size_t>(0, 2)(rng);
    for (size_t m = 0; m < msgs; ++m) {
      data::Relation msg(comp.channels()[c].arity());
      fill(msg, 2);
      s->channels[c].push_back(std::move(msg));
    }
    s->received[c] = coin();
    s->sent[c] = coin();
  }
  s->mover = std::uniform_int_distribution<int>(
      kEnvMover, static_cast<int>(s->peers.size()) - 1)(rng);
}

TEST(FlatSnapshot, RandomizedRoundTrip) {
  spec::Composition comp = MustParse(kSpec);
  FlatSnapshotCodec codec(&comp);
  std::mt19937 rng(20260808);
  std::vector<uint32_t> buf;
  // One scratch decode target reused across iterations, mirroring the
  // graph's decode_scratch_ — catches stale state leaking between decodes.
  Snapshot scratch;
  for (int iter = 0; iter < 200; ++iter) {
    Snapshot original = MakeInitialSnapshot(comp);
    Randomize(comp, rng, &original);
    codec.Encode(original, &buf);
    codec.Decode(FlatSnapshot{buf.data(), static_cast<uint32_t>(buf.size())},
                 &scratch);
    ASSERT_EQ(scratch, original) << "round-trip mismatch at iter " << iter;
    // Re-encoding the decoded snapshot must reproduce the span verbatim
    // (the encoding is canonical, not merely invertible).
    std::vector<uint32_t> buf2;
    codec.Encode(scratch, &buf2);
    ASSERT_EQ(buf, buf2) << "re-encode not canonical at iter " << iter;
  }
}

/// AppendStateUpdate against Definition 2.4's update on data::Relation:
/// (φ+ ∧ ¬φ−) ∨ (S ∧ φ+ ∧ φ−) ∨ (S ∧ ¬φ+ ∧ ¬φ−), with Union, Difference and
/// Intersection, and φ+ or φ− absent where the relation has no such rule.
/// Values come from a small range so the three relations overlap often:
/// insert-and-delete conflicts inside and outside S, deletes of tuples S
/// lacks, and at arity 0 the one tuple in any of the three.
TEST(FlatSnapshot, StateUpdateMatchesRelationAlgebra) {
  std::mt19937 rng(20261019);
  auto random_relation = [&](size_t arity) {
    data::Relation rel(arity);
    const size_t n = std::uniform_int_distribution<size_t>(0, 6)(rng);
    for (size_t t = 0; t < n; ++t) {
      std::vector<data::Value> vals(arity);
      for (data::Value& v : vals) {
        v = std::uniform_int_distribution<data::Value>(0, 2)(rng);
      }
      rel.Insert(data::Tuple(std::move(vals)));
    }
    return rel;
  };
  size_t conflicts = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t arity = static_cast<size_t>(iter % 4);
    const data::Relation state = random_relation(arity);
    const data::Relation plus = random_relation(arity);
    const data::Relation minus = random_relation(arity);
    const int rules = std::uniform_int_distribution<int>(0, 3)(rng);
    const bool has_insert = (rules & 1) != 0;
    const bool has_delete = (rules & 2) != 0;

    data::Relation want = state;
    if (has_insert && has_delete) {
      want = plus.Difference(minus)
                 .Union(state.Intersection(plus.Intersection(minus)))
                 .Union(state.Difference(plus.Union(minus)));
      conflicts += plus.Intersection(minus).size();
    } else if (has_insert) {
      want = state.Union(plus);
    } else if (has_delete) {
      want = state.Difference(minus);
    }

    std::vector<uint32_t> s, i, d, got{7};  // a word before the block
    AppendRelationWords(state, &s);
    AppendRelationWords(plus, &i);
    AppendRelationWords(minus, &d);
    AppendStateUpdate(s.data(), has_insert ? i.data() : nullptr,
                      has_delete ? d.data() : nullptr,
                      static_cast<uint32_t>(arity), &got);
    std::vector<uint32_t> expected{7};
    AppendRelationWords(want, &expected);
    ASSERT_EQ(got, expected) << "iter " << iter << " arity " << arity
                             << " insert " << has_insert << " delete "
                             << has_delete;
  }
  EXPECT_GT(conflicts, 100u);
}

TEST(FlatSnapshot, HashAndEqualityAreConsistent) {
  spec::Composition comp = MustParse(kSpec);
  FlatSnapshotCodec codec(&comp);
  std::mt19937 rng(97);
  std::vector<Snapshot> snaps;
  std::vector<std::vector<uint32_t>> spans;
  for (int i = 0; i < 60; ++i) {
    Snapshot s = MakeInitialSnapshot(comp);
    Randomize(comp, rng, &s);
    std::vector<uint32_t> buf;
    codec.Encode(s, &buf);
    snaps.push_back(std::move(s));
    spans.push_back(std::move(buf));
  }
  for (size_t i = 0; i < snaps.size(); ++i) {
    for (size_t j = 0; j < snaps.size(); ++j) {
      FlatSnapshot a{spans[i].data(), static_cast<uint32_t>(spans[i].size())};
      FlatSnapshot b{spans[j].data(), static_cast<uint32_t>(spans[j].size())};
      // Injectivity both ways: spans agree exactly when snapshots do.
      ASSERT_EQ(a == b, snaps[i] == snaps[j]) << "i=" << i << " j=" << j;
      if (a == b) {
        ASSERT_EQ(HashFlatSnapshot(a.data, a.size),
                  HashFlatSnapshot(b.data, b.size));
      }
    }
  }
}

TEST(FlatSnapshot, SingleFieldMutationsChangeTheSpan) {
  spec::Composition comp = MustParse(kSpec);
  FlatSnapshotCodec codec(&comp);
  std::vector<uint32_t> base, mutated;
  Snapshot s = MakeInitialSnapshot(comp);
  codec.Encode(s, &base);

  Snapshot m = s;
  m.mover = 0;
  codec.Encode(m, &mutated);
  EXPECT_NE(base, mutated);

  m = s;
  m.received[0] = true;
  codec.Encode(m, &mutated);
  EXPECT_NE(base, mutated);

  m = s;
  m.peers[0].send_errors[1] = true;
  codec.Encode(m, &mutated);
  EXPECT_NE(base, mutated);

  m = s;
  m.peers[0].state.relation("ready").Insert(data::Tuple(std::vector<data::Value>{}));
  codec.Encode(m, &mutated);
  EXPECT_NE(base, mutated);

  m = s;
  m.channels[0].emplace_back(comp.channels()[0].arity());
  codec.Encode(m, &mutated);
  EXPECT_NE(base, mutated);
}

TEST(FlatSnapshot, ReachableSnapshotsRoundTrip) {
  // Round-trip genuinely reachable snapshots, not just synthetic ones:
  // run the transition generator breadth-first for a few levels and check
  // every successor survives Encode/Decode unchanged.
  spec::Composition comp = MustParse(kSpec);
  Interner interner = comp.BuildInterner();
  std::vector<data::Instance> dbs;
  for (const auto& peer : comp.peers()) {
    dbs.emplace_back(&peer.database_schema());
  }
  dbs[0].relation("item").Insert(
      data::Tuple(std::vector<data::Value>{interner.Intern("a")}));
  data::Domain domain;
  for (const auto& db : dbs) db.CollectActiveDomain(domain);
  for (SymbolId id = 0; id < interner.size(); ++id) domain.Add(id);
  TransitionGenerator generator(&comp, dbs, domain, &interner, {});

  FlatSnapshotCodec codec(&comp);
  std::vector<uint32_t> buf;
  Snapshot scratch;
  auto initials = generator.InitialSnapshots();
  ASSERT_TRUE(initials.ok()) << initials.status().ToString();
  std::vector<Snapshot> frontier = std::move(*initials);
  size_t checked = 0;
  for (int level = 0; level < 3; ++level) {
    std::vector<Snapshot> next;
    for (const Snapshot& s : frontier) {
      codec.Encode(s, &buf);
      codec.Decode(FlatSnapshot{buf.data(), static_cast<uint32_t>(buf.size())},
                   &scratch);
      ASSERT_EQ(scratch, s);
      ++checked;
      if (next.size() < 32) {
        auto succs = generator.Successors(s);
        ASSERT_TRUE(succs.ok()) << succs.status().ToString();
        for (Snapshot& succ : *succs) next.push_back(std::move(succ));
      }
    }
    frontier = std::move(next);
  }
  EXPECT_GT(checked, 10u);
}

}  // namespace
}  // namespace wsv::runtime
