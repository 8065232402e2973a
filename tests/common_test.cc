#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "automata/buchi.h"
#include "automata/emptiness.h"
#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/interner.h"
#include "common/ledger.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace wsv {
namespace {

TEST(Status, CodesAndMessages) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::UndecidableRegime("outside Theorem 3.4");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kUndecidableRegime);
  EXPECT_NE(err.ToString().find("outside Theorem 3.4"), std::string::npos);
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> good = 41;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good + 1, 42);
  Result<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(Result, AssignOrReturnMacroPropagates) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    WSV_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 14);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

TEST(Interner, StableDenseIds) {
  Interner interner;
  SymbolId a = interner.Intern("alpha");
  SymbolId b = interner.Intern("beta");
  EXPECT_EQ(interner.Intern("alpha"), a);  // idempotent
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Text(a), "alpha");
  EXPECT_EQ(interner.Lookup("beta"), b);
  EXPECT_EQ(interner.Lookup("gamma"), kInvalidSymbol);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Interner, HitPathDoesNotStoreASecondCopy) {
  Interner interner;
  // Long enough to defeat the small-string optimization, so an accidental
  // re-store would move the character buffer.
  const std::string long_name(128, 'q');
  SymbolId id = interner.Intern(long_name);
  const char* stored = interner.Text(id).data();

  // Re-intern the same text from a different heap buffer and from a
  // substring view with no terminator at the boundary: both must hit
  // without creating a new entry or touching the stored string.
  std::string other_buffer = long_name + "suffix";
  std::string_view view(other_buffer.data(), long_name.size());
  EXPECT_EQ(interner.Intern(view), id);
  EXPECT_EQ(interner.Lookup(view), id);
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.Text(id).data(), stored);

  // Growth (rehash) must not invalidate stored text either — ids index a
  // stable vector, the hash table holds only ids.
  for (int i = 0; i < 200; ++i) interner.Intern("sym" + std::to_string(i));
  EXPECT_EQ(interner.Text(id).data(), stored);
  EXPECT_EQ(interner.Lookup(long_name), id);
}

TEST(Arena, AllocWordsIsStableAcrossGrowth) {
  Arena arena(64 * sizeof(uint32_t));
  std::vector<uint32_t*> spans;
  for (uint32_t i = 0; i < 100; ++i) {
    uint32_t* span = arena.AllocWords(1 + i % 7);
    std::fill(span, span + 1 + i % 7, i);
    spans.push_back(span);
  }
  // A block larger than a chunk gets a chunk of its own.
  uint32_t* big = arena.AllocWords(1000);
  std::fill(big, big + 1000, 7u);
  // Earlier spans stay valid while later allocations force chunk growth.
  for (uint32_t i = 0; i < spans.size(); ++i) {
    for (uint32_t w = 0; w < 1 + i % 7; ++w) EXPECT_EQ(spans[i][w], i);
  }
  EXPECT_EQ(big[999], 7u);
}

TEST(FlatIdSet, FindInsertAndGrowth) {
  FlatIdSet set;
  std::vector<size_t> hashes;
  for (uint32_t id = 0; id < 1000; ++id) {
    size_t hash = HashKey64(id * 2654435761u + 1);
    hashes.push_back(hash);
    EXPECT_EQ(set.Find(hash, [&](uint32_t) { return false; }),
              FlatIdSet::kEmpty);
    set.Insert(hash, id);
  }
  EXPECT_EQ(set.size(), 1000u);
  for (uint32_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(set.Find(hashes[id], [&](uint32_t found) { return found == id; }),
              id);
  }
  // A colliding hash whose equality check rejects every candidate misses.
  EXPECT_EQ(set.Find(hashes[0], [&](uint32_t) { return false; }),
            FlatIdSet::kEmpty);
}

TEST(Strings, JoinSplitTrim) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_TRUE(StartsWith("received_q", "received_"));
  EXPECT_FALSE(StartsWith("rec", "received_"));
}

// --- Büchi utility coverage (Intersect, determinism checks) ---------------

TEST(BuchiUtil, IntersectionOfComplementaryLanguagesIsEmpty) {
  using namespace automata;
  // A: infinitely many p. B: finitely many p (eventually globally !p).
  BuchiAutomaton a(1);
  StateId a0 = a.AddState();
  a.AddInitial(a0);
  a.AddTransition(a0, a0, PropExpr::Not(PropExpr::Lit(0)));
  StateId a1 = a.AddState();
  a.AddTransition(a0, a1, PropExpr::Lit(0));
  a.AddTransition(a1, a1, PropExpr::Lit(0));
  a.AddTransition(a1, a0, PropExpr::Not(PropExpr::Lit(0)));
  a.AddAcceptingSet({a1});  // p seen infinitely often

  BuchiAutomaton b(1);
  StateId b0 = b.AddState();
  StateId b1 = b.AddState();
  b.AddInitial(b0);
  b.AddTransition(b0, b0, PropExpr::True());
  b.AddTransition(b0, b1, PropExpr::Not(PropExpr::Lit(0)));
  b.AddTransition(b1, b1, PropExpr::Not(PropExpr::Lit(0)));
  b.AddAcceptingSet({b1});  // eventually globally !p

  auto product = BuchiAutomaton::Intersect(a, b);
  ASSERT_TRUE(product.ok());
  EXPECT_TRUE(IsEmptyLanguage(*product));
}

TEST(BuchiUtil, IntersectionOfOverlappingLanguagesIsNonEmpty) {
  using namespace automata;
  // A: G p. B: F p. Intersection: G p (non-empty).
  BuchiAutomaton a(1);
  StateId a0 = a.AddState();
  a.AddInitial(a0);
  a.AddTransition(a0, a0, PropExpr::Lit(0));
  a.AddAcceptingSet({a0});

  BuchiAutomaton b(1);
  StateId b0 = b.AddState();
  StateId b1 = b.AddState();
  b.AddInitial(b0);
  b.AddTransition(b0, b0, PropExpr::True());
  b.AddTransition(b0, b1, PropExpr::Lit(0));
  b.AddTransition(b1, b1, PropExpr::True());
  b.AddAcceptingSet({b1});

  auto product = BuchiAutomaton::Intersect(a, b);
  ASSERT_TRUE(product.ok());
  EXPECT_FALSE(IsEmptyLanguage(*product));
}

TEST(BuchiUtil, DeterminismAndCompletenessChecks) {
  using namespace automata;
  BuchiAutomaton det(1);
  StateId s = det.AddState();
  det.AddInitial(s);
  det.AddTransition(s, s, PropExpr::Lit(0));
  det.AddTransition(s, s, PropExpr::Not(PropExpr::Lit(0)));
  det.AddAcceptingSet({s});
  EXPECT_TRUE(det.IsDeterministic());
  EXPECT_TRUE(det.IsComplete());

  BuchiAutomaton nondet(1);
  StateId n0 = nondet.AddState();
  StateId n1 = nondet.AddState();
  nondet.AddInitial(n0);
  nondet.AddTransition(n0, n0, PropExpr::True());
  nondet.AddTransition(n0, n1, PropExpr::Lit(0));
  nondet.AddAcceptingSet({n1});
  EXPECT_FALSE(nondet.IsDeterministic());
  EXPECT_FALSE(nondet.IsComplete());  // n1 has no outgoing transitions
}

/// Runs `body` on the caller while the pool's only worker is held inside a
/// drainer of an outer ParallelChunks call, so every drainer `body` queues
/// waits behind it.
void WithPinnedWorker(ThreadPool& pool, const std::function<void()>& body) {
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  // Two chunks, two lanes: the caller cannot finish its chunk before the
  // worker pins itself on the other one.
  ThreadPool::ParallelChunks(&pool, /*helpers=*/1, /*count=*/2,
                             [&](size_t lane, size_t /*chunk*/) {
                               if (lane == 1) {
                                 pinned.store(true);
                                 while (!release.load()) {
                                   std::this_thread::yield();
                                 }
                                 return;
                               }
                               while (!pinned.load()) {
                                 std::this_thread::yield();
                               }
                               body();
                               release.store(true);
                             });
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  // Drainers queued behind a pinned worker are abandoned by their calls;
  // the destructor still runs them (as no-ops on state the calls released)
  // before it joins.
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    WithPinnedWorker(pool, [&] {
      for (int i = 0; i < 20; ++i) {
        ThreadPool::ParallelChunks(&pool, /*helpers=*/1, /*count=*/2,
                                   [&](size_t, size_t) { done.fetch_add(1); });
      }
    });
  }
  EXPECT_EQ(done.load(), 40);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::ResolveJobs(3), 3u);
  EXPECT_GE(ThreadPool::ResolveJobs(0), 1u);  // 0 = hardware concurrency
}

TEST(Ledger, NestedDrainsBookOnlyTheOutermostInterval) {
  // A chunk that fans out again on the same thread (a sweep lane checking
  // one database) must not book its inner drains on top of the outer one.
  LedgerRegistry& ledgers = LedgerRegistry::Global();
  ledgers.set_enabled(true);
  {
    ThreadPool pool(2);  // its workers register ledgers at birth
    ledgers.RegisterCurrentThread("nested-drain-test");
    ledgers.Reset();
    ThreadPool::ParallelChunks(&pool, 2, /*count=*/3, [&](size_t, size_t) {
      ThreadPool::ParallelChunks(&pool, 2, /*count=*/4, [](size_t, size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
    });
    for (const WorkerLedgerSnapshot& snap : ledgers.Snapshot()) {
      EXPECT_LE(snap.drain_ns, snap.wall_ns) << snap.name;
      EXPECT_LE(snap.exec_ns, snap.wall_ns) << snap.name;
    }
  }
  ledgers.set_enabled(false);
}

TEST(ParallelChunks, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> seen(100);
  for (auto& s : seen) s.store(0);
  ThreadPool::ParallelChunks(&pool, /*helpers=*/3, /*count=*/100,
                             [&](size_t /*lane*/, size_t chunk) {
                               seen[chunk].fetch_add(1);
                             });
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "chunk " << i;
  }
}

TEST(ParallelChunks, SerialFallbackOnNullPoolPreservesOrder) {
  std::vector<size_t> order;
  ThreadPool::ParallelChunks(nullptr, /*helpers=*/4, /*count=*/10,
                             [&](size_t lane, size_t chunk) {
                               EXPECT_EQ(lane, 0u);
                               order.push_back(chunk);
                             });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelChunks, CallerDrainsOnSaturatedPool) {
  // The single pool thread is pinned by another fan-out, so every drainer
  // is queued behind it: the caller must complete all chunks itself
  // without waiting for the queued drainers (which are abandoned).
  ThreadPool pool(1);
  std::atomic<int> done{0};
  WithPinnedWorker(pool, [&] {
    ThreadPool::ParallelChunks(&pool, /*helpers=*/1, /*count=*/50,
                               [&](size_t lane, size_t /*chunk*/) {
                                 EXPECT_EQ(lane, 0u);  // no drainer ran
                                 done.fetch_add(1);
                               });
  });
  EXPECT_EQ(done.load(), 50);
}

TEST(ParallelChunks, LanesAreDisjoint) {
  // Each lane id is owned by exactly one thread at a time: concurrent
  // entries with the same lane would trip the entered flag.
  ThreadPool pool(4);
  constexpr size_t kLanes = 5;  // caller + 4 helpers
  std::array<std::atomic<bool>, kLanes> entered{};
  std::atomic<bool> overlap{false};
  ThreadPool::ParallelChunks(&pool, kLanes - 1, /*count=*/200,
                             [&](size_t lane, size_t /*chunk*/) {
                               ASSERT_LT(lane, kLanes);
                               if (entered[lane].exchange(true)) {
                                 overlap.store(true);
                               }
                               entered[lane].store(false);
                             });
  EXPECT_FALSE(overlap.load());
}

TEST(ParallelChunks, LowestChunkExceptionRethrownOnCaller) {
  ThreadPool pool(2);
  try {
    ThreadPool::ParallelChunks(&pool, /*helpers=*/2, /*count=*/40,
                               [&](size_t /*lane*/, size_t chunk) {
                                 if (chunk >= 7) {
                                   throw std::runtime_error(
                                       "chunk " + std::to_string(chunk));
                                 }
                               });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    // Several chunks may throw; the recorded error is the lowest-index one
    // among them. Chunk 7 always runs (claims are monotone), so it is
    // always the winner.
    EXPECT_STREQ(e.what(), "chunk 7");
  }
  // The pool survives and is reusable.
  std::atomic<int> after{0};
  ThreadPool::ParallelChunks(&pool, /*helpers=*/2, /*count=*/10,
                             [&](size_t, size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
}

}  // namespace
}  // namespace wsv
