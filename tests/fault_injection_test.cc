#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/fault.h"
#include "common/run_control.h"
#include "common/thread_pool.h"
#include "spec/parser.h"
#include "verifier/db_enum.h"
#include "verifier/engine.h"
#include "verifier/parallel_sweep.h"

namespace wsv::verifier {
namespace {

/// Single unary database relation over a 2-element fresh domain: the
/// iso-reduced enumeration yields exactly 3 canonical databases
/// ({}, {#1}, {#1,#2}), small enough to reason about indices exactly.
constexpr char kTinySpec[] = R"(
peer P {
  database { d(x); }
  input    { i(x); }
  rules {
    options i(x) :- d(x);
  }
}
)";

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto comp = spec::ParseComposition(kTinySpec);
    ASSERT_TRUE(comp.ok()) << comp.status();
    comp_.emplace(std::move(*comp));
    pd_ = BuildPseudoDomain(*comp_, {}, /*fresh_count=*/2);
  }

  /// Fresh enumerator positioned at the start (each Run consumes one).
  DatabaseEnumerator MakeEnumerator() {
    return DatabaseEnumerator(&*comp_, pd_.domain, pd_.fresh,
                              /*iso_reduce=*/true);
  }

  std::optional<spec::Composition> comp_;
  PseudoDomain pd_;
};

TEST_F(FaultInjectionTest, EnumerationHasThreeDatabases) {
  DatabaseEnumerator enumerator = MakeEnumerator();
  std::vector<data::Instance> dbs;
  size_t count = 0;
  while (enumerator.Next(&dbs)) ++count;
  ASSERT_EQ(count, 3u);
}

/// A check that keeps throwing for one database is retried once and then
/// recorded as failed; the sweep still completes the other databases and
/// degrades the clean pass to a db-failures verdict — at every job count.
TEST_F(FaultInjectionTest, ThrowingCheckIsRetriedThenSkipped) {
  for (size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::atomic<size_t> attempts_on_bad{0};
    SweepOptions options;
    options.jobs = jobs;
    options.skip_failed_databases = true;
    DatabaseEnumerator enumerator = MakeEnumerator();
    ParallelSweep sweep(&enumerator, options);
    auto outcome = sweep.Run([&](size_t index, const std::vector<data::Instance>&,
                                 EngineOutcome&) -> Result<bool> {
      if (index == 1) {
        ++attempts_on_bad;
        throw std::bad_alloc();
      }
      return false;
    });
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_FALSE(outcome->violation_found);
    EXPECT_EQ(outcome->failed_db_indices, std::vector<size_t>{1});
    EXPECT_EQ(attempts_on_bad.load(), 2u);  // original attempt + one retry
    EXPECT_EQ(outcome->db_retries, 1u);
    EXPECT_EQ(outcome->completed_prefix, 3u);
    EXPECT_EQ(outcome->stop_reason, StopReason::kDbFailures);
    EXPECT_EQ(outcome->stop_status.code(), StatusCode::kPartialFailure);
  }
}

/// A transient failure (first attempt throws, retry succeeds) leaves no
/// trace in the failed list — only the retry counter.
TEST_F(FaultInjectionTest, TransientFailureSucceedsOnRetry) {
  std::atomic<size_t> attempts_on_bad{0};
  SweepOptions options;
  options.skip_failed_databases = true;
  DatabaseEnumerator enumerator = MakeEnumerator();
  ParallelSweep sweep(&enumerator, options);
  auto outcome = sweep.Run([&](size_t index, const std::vector<data::Instance>&,
                               EngineOutcome&) -> Result<bool> {
    if (index == 1 && attempts_on_bad.fetch_add(1) == 0) {
      return Status::Internal("transient fault");
    }
    return false;
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->failed_db_indices.empty());
  EXPECT_EQ(outcome->db_retries, 1u);
  EXPECT_EQ(outcome->completed_prefix, 3u);
  EXPECT_EQ(outcome->stop_reason, StopReason::kComplete);
}

/// Without skip_failed_databases the sweep aborts and the error surfaces
/// (after the one retry).
TEST_F(FaultInjectionTest, AbortModeSurfacesTheError) {
  SweepOptions options;
  options.skip_failed_databases = false;
  DatabaseEnumerator enumerator = MakeEnumerator();
  ParallelSweep sweep(&enumerator, options);
  auto outcome = sweep.Run([&](size_t index, const std::vector<data::Instance>&,
                               EngineOutcome&) -> Result<bool> {
    if (index == 1) throw std::runtime_error("injected");
    return false;
  });
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
}

/// A throw from the sweep loop around the check (here the checkpoint
/// callback) gets the check's exception boundary at every job count: a
/// memory-budget throw is the memory-budget stop, anything else ends the
/// sweep with a hard error, and neither escapes Run.
TEST_F(FaultInjectionTest, ThrowOutsideTheCheckEndsTheSweep) {
  for (size_t jobs : {1u, 2u, 4u}) {
    for (bool budget : {true, false}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " budget=" + std::to_string(budget));
      SweepOptions options;
      options.jobs = jobs;
      options.checkpoint_every = 1;
      options.checkpoint_fn = [budget](size_t, const std::vector<size_t>&,
                                       size_t) {
        if (budget) throw fault::MemoryBudgetError("checkpoint buffer");
        throw std::runtime_error("checkpoint writer broke");
      };
      DatabaseEnumerator enumerator = MakeEnumerator();
      ParallelSweep sweep(&enumerator, options);
      auto outcome = sweep.Run([](size_t, const std::vector<data::Instance>&,
                                  EngineOutcome&) -> Result<bool> {
        return false;
      });
      if (budget) {
        ASSERT_TRUE(outcome.ok()) << outcome.status();
        EXPECT_EQ(outcome->stop_reason, StopReason::kMemoryBudget);
      } else {
        ASSERT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
        EXPECT_NE(outcome.status().ToString().find("checkpoint writer broke"),
                  std::string::npos);
      }
    }
  }
}

/// A violation stays a sound VIOLATION even when other databases failed:
/// failures beyond the witness index are unreachable in serial order and
/// must not appear in the failed list.
TEST_F(FaultInjectionTest, WitnessBeforeFailureHidesTheFailure) {
  for (size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    SweepOptions options;
    options.jobs = jobs;
    options.skip_failed_databases = true;
    DatabaseEnumerator enumerator = MakeEnumerator();
    ParallelSweep sweep(&enumerator, options);
    auto outcome = sweep.Run([&](size_t index, const std::vector<data::Instance>&,
                                 EngineOutcome& out) -> Result<bool> {
      if (index == 0) {
        out.label = {"witness-0"};
        return true;
      }
      if (index == 2) throw std::bad_alloc();
      return false;
    });
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(outcome->violation_found);
    EXPECT_EQ(outcome->violation_db_index, 0u);
    EXPECT_EQ(outcome->label, std::vector<std::string>{"witness-0"});
    EXPECT_TRUE(outcome->failed_db_indices.empty());
  }
}

/// The dual case: a failure below the witness index IS reported alongside
/// the (still deterministic, lowest-index) witness.
TEST_F(FaultInjectionTest, FailureBelowWitnessIsReported) {
  for (size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    SweepOptions options;
    options.jobs = jobs;
    options.skip_failed_databases = true;
    DatabaseEnumerator enumerator = MakeEnumerator();
    ParallelSweep sweep(&enumerator, options);
    auto outcome = sweep.Run([&](size_t index, const std::vector<data::Instance>&,
                                 EngineOutcome& out) -> Result<bool> {
      if (index == 0) throw std::bad_alloc();
      if (index == 2) {
        out.label = {"witness-2"};
        return true;
      }
      return false;
    });
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(outcome->violation_found);
    EXPECT_EQ(outcome->violation_db_index, 2u);
    EXPECT_EQ(outcome->failed_db_indices, std::vector<size_t>{0});
  }
}

/// A cancel requested before the sweep starts stops it at the first
/// dispatch: nothing is checked, the outcome records kCanceled.
TEST_F(FaultInjectionTest, CancellationStopsDispatch) {
  RunControl control;
  control.RequestCancel();
  SweepOptions options;
  options.control = &control;
  DatabaseEnumerator enumerator = MakeEnumerator();
  ParallelSweep sweep(&enumerator, options);
  auto outcome = sweep.Run(
      [&](size_t, const std::vector<data::Instance>&, EngineOutcome&)
          -> Result<bool> { return false; });
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->databases_checked, 0u);
  EXPECT_EQ(outcome->completed_prefix, 0u);
  EXPECT_EQ(outcome->stop_reason, StopReason::kCanceled);
}

/// A deadline that expires during the first check stops the sweep with a
/// kDeadline outcome covering only the completed prefix.
TEST_F(FaultInjectionTest, DeadlineStopsSweepMidway) {
  RunControl control;
  control.ArmDeadlineMs(1);
  SweepOptions options;
  options.control = &control;
  DatabaseEnumerator enumerator = MakeEnumerator();
  ParallelSweep sweep(&enumerator, options);
  auto outcome = sweep.Run([&](size_t, const std::vector<data::Instance>&,
                               EngineOutcome&) -> Result<bool> {
    // Outlive the deadline, then report the stop the way a control-polling
    // check would.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Status check = control.Check();
    if (!check.ok()) return check;
    return false;
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->stop_reason, StopReason::kDeadline);
  EXPECT_EQ(outcome->completed_prefix, 0u);
}

/// Periodic checkpoints report a monotonically non-decreasing completed
/// prefix and, at the end, exactly the sweep's final progress.
TEST_F(FaultInjectionTest, CheckpointCallbackSeesMonotoneProgress) {
  std::mutex mu;
  std::vector<size_t> prefixes;
  SweepOptions options;
  options.jobs = 2;
  options.skip_failed_databases = true;
  options.checkpoint_every = 1;
  options.checkpoint_fn = [&](size_t completed_prefix,
                              const std::vector<size_t>& failed,
                              size_t databases_completed) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_LE(completed_prefix, 3u);
    EXPECT_LE(failed.size(), 1u);
    EXPECT_LE(databases_completed, 3u);
    prefixes.push_back(completed_prefix);
  };
  DatabaseEnumerator enumerator = MakeEnumerator();
  ParallelSweep sweep(&enumerator, options);
  auto outcome = sweep.Run([&](size_t index, const std::vector<data::Instance>&,
                               EngineOutcome&) -> Result<bool> {
    if (index == 1) throw std::bad_alloc();
    return false;
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_FALSE(prefixes.empty());
  for (size_t i = 1; i < prefixes.size(); ++i) {
    EXPECT_LE(prefixes[i - 1], prefixes[i]);
  }
  EXPECT_EQ(outcome->completed_prefix, 3u);
}

/// Resume alignment: start_index fast-forwards the enumerator so a resumed
/// sweep sees the same databases at the same indices, and carries the
/// resumed failed list into the merged outcome.
TEST_F(FaultInjectionTest, StartIndexPreservesIndexAlignment) {
  // Reference: record each index's database from a full sweep.
  std::mutex mu;
  std::vector<std::vector<data::Instance>> seen(3);
  {
    DatabaseEnumerator enumerator = MakeEnumerator();
    ParallelSweep sweep(&enumerator, SweepOptions{});
    auto outcome = sweep.Run(
        [&](size_t index, const std::vector<data::Instance>& dbs,
            EngineOutcome&) -> Result<bool> {
          std::lock_guard<std::mutex> lock(mu);
          seen[index] = dbs;
          return false;
        });
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  SweepOptions options;
  options.start_index = 1;
  options.resume_failed = {0};
  options.skip_failed_databases = true;
  DatabaseEnumerator enumerator = MakeEnumerator();
  ParallelSweep sweep(&enumerator, options);
  auto outcome = sweep.Run(
      [&](size_t index, const std::vector<data::Instance>& dbs,
          EngineOutcome&) -> Result<bool> {
        EXPECT_GE(index, 1u);
        EXPECT_LT(index, 3u);
        EXPECT_EQ(dbs.size(), seen[index].size());
        for (size_t p = 0; p < dbs.size(); ++p) {
          EXPECT_EQ(dbs[p].ToString(pd_.interner),
                    seen[index][p].ToString(pd_.interner));
        }
        return false;
      });
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->databases_checked, 2u);
  EXPECT_EQ(outcome->completed_prefix, 3u);
  EXPECT_EQ(outcome->failed_db_indices, std::vector<size_t>{0});
  EXPECT_EQ(outcome->stop_reason, StopReason::kDbFailures);
}

// --- The deterministic fault-injection subsystem itself. ---

/// Every test arms its own sites and disarms on exit so the global
/// registry never leaks triggers into unrelated tests in this binary.
class FaultSubsystemTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Reset(); }
};

TEST_F(FaultSubsystemTest, SpecParsing) {
  EXPECT_TRUE(fault::ArmFromSpec("a.site:1"));
  EXPECT_TRUE(fault::ArmFromSpec("a.site:3:crash"));
  EXPECT_TRUE(fault::ArmFromSpec("a:1,b:2:crash,c:4:every"));
  EXPECT_TRUE(fault::ArmFromSpec("a:2:every:fail"));
  // An empty spec is a no-op arm, not an error: nothing triggers.
  EXPECT_TRUE(fault::ArmFromSpec(""));
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ArmFromSpec("no-count"));
  EXPECT_FALSE(fault::ArmFromSpec("a.site:0"));
  EXPECT_FALSE(fault::ArmFromSpec("a.site:abc"));
  EXPECT_FALSE(fault::ArmFromSpec("a.site:1:bogus-mode"));
}

TEST_F(FaultSubsystemTest, UnarmedSitesNeverTrigger) {
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(WSV_FAULT_POINT("anything.at.all"));
  EXPECT_EQ(fault::InjectedTotal(), 0u);
}

TEST_F(FaultSubsystemTest, NthHitTriggersExactlyOnce) {
  ASSERT_TRUE(fault::ArmFromSpec("io.site:3"));
  EXPECT_TRUE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldTrigger("io.site"));  // hit 1
  EXPECT_FALSE(fault::ShouldTrigger("io.site"));  // hit 2
  EXPECT_TRUE(fault::ShouldTrigger("io.site"));   // hit 3: fires
  EXPECT_FALSE(fault::ShouldTrigger("io.site"));  // hit 4: spent
  EXPECT_FALSE(fault::ShouldTrigger("other.site"));
  EXPECT_EQ(fault::InjectedTotal(), 1u);
}

TEST_F(FaultSubsystemTest, EveryModifierRetriggersAtMultiples) {
  ASSERT_TRUE(fault::ArmFromSpec("io.site:2:every"));
  std::vector<bool> fired;
  for (int hit = 1; hit <= 6; ++hit) {
    fired.push_back(fault::ShouldTrigger("io.site"));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false,
                                      true}));
  EXPECT_EQ(fault::InjectedTotal(), 3u);
}

TEST_F(FaultSubsystemTest, InjectedCountsBreakDownPerSite) {
  ASSERT_TRUE(fault::ArmFromSpec("a:1,b:1:every"));
  fault::ShouldTrigger("a");
  fault::ShouldTrigger("b");
  fault::ShouldTrigger("b");
  auto counts = fault::InjectedCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "a");
  EXPECT_EQ(counts[0].second, 1u);
  EXPECT_EQ(counts[1].first, "b");
  EXPECT_EQ(counts[1].second, 2u);
  EXPECT_EQ(fault::InjectedTotal(), 3u);

  fault::Reset();
  EXPECT_FALSE(fault::Enabled());
  EXPECT_TRUE(fault::InjectedCounts().empty());
}

TEST_F(FaultSubsystemTest, ArenaGrowthFaultThrowsMemoryBudget) {
  ASSERT_TRUE(fault::ArmFromSpec("arena.alloc:1"));
  Arena arena;
  EXPECT_THROW(arena.AllocWords(16), fault::MemoryBudgetError);
  // MemoryBudgetError must be catchable as bad_alloc (it extends it) so
  // legacy handlers still degrade instead of crashing.
  fault::Reset();
  ASSERT_TRUE(fault::ArmFromSpec("arena.alloc:1"));
  Arena second;
  try {
    second.AllocWords(16);
    FAIL() << "expected an injected allocation failure";
  } catch (const std::bad_alloc&) {
  }
}

TEST_F(FaultSubsystemTest, PoolTaskFaultIsIsolatedToOneTask) {
  // The first drainer task throws at the pool boundary before it claims
  // its lane: that drainer is abandoned, the caller and the other drainer
  // run every chunk exactly once, and no exception reaches the caller.
  ASSERT_TRUE(fault::ArmFromSpec("pool.task:1"));
  std::vector<std::atomic<int>> runs(64);
  for (auto& r : runs) r.store(0);
  {
    ThreadPool pool(2);
    for (int round = 0; round < 2; ++round) {
      EXPECT_NO_THROW(ThreadPool::ParallelChunks(
          &pool, /*helpers=*/2, runs.size(),
          [&](size_t /*lane*/, size_t chunk) { runs[chunk].fetch_add(1); }));
    }
  }  // The destructor runs every queued drainer, so the site was hit.
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 2) << "chunk " << i;
  }
  EXPECT_EQ(fault::InjectedTotal(), 1u);
}

/// The memory-budget stop contract: an allocation-budget fault inside a
/// check degrades the sweep to a graceful `memory-budget` stop covering
/// the completed prefix — never a crash, never a false "complete".
TEST_F(FaultSubsystemTest, MemoryBudgetStopsSweepGracefully) {
  auto comp = spec::ParseComposition(kTinySpec);
  ASSERT_TRUE(comp.ok()) << comp.status();
  PseudoDomain pd = BuildPseudoDomain(*comp, {}, /*fresh_count=*/2);
  DatabaseEnumerator enumerator(&*comp, pd.domain, pd.fresh,
                                /*iso_reduce=*/true);
  SweepOptions options;
  options.skip_failed_databases = true;
  ParallelSweep sweep(&enumerator, options);
  auto outcome = sweep.Run([&](size_t index,
                               const std::vector<data::Instance>&,
                               EngineOutcome&) -> Result<bool> {
    if (index == 1) {
      throw fault::MemoryBudgetError("simulated arena exhaustion");
    }
    return false;
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->violation_found);
  EXPECT_EQ(outcome->stop_reason, StopReason::kMemoryBudget);
  EXPECT_EQ(outcome->stop_status.code(), StatusCode::kMemoryBudget);
  EXPECT_LE(outcome->completed_prefix, 1u);
}

}  // namespace
}  // namespace wsv::verifier
