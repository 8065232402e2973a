// Tests for the observability subsystem (src/obs/): registry semantics,
// histogram bucketing, the phase tree, JSON writer/validator, the stats
// document schema, trace-event well-formedness, and end-to-end counter and
// phase collection through a Verifier run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ltl/property.h"
#include "obs/obs.h"
#include "spec/parser.h"
#include "verifier/verifier.h"

namespace wsv {
namespace {

constexpr char kPingPongSpec[] = R"(
peer Requester {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); }
  inqueue flat  { resp(x); }
  outqueue flat { req(x); }
  rules {
    options ask(x) :- item(x);
    send req(x) :- ask(x);
    insert got(x) :- ?resp(x);
  }
}
peer Responder {
  inqueue flat  { req(x); }
  outqueue flat { resp(x); }
  rules {
    send resp(x) :- ?req(x);
  }
}
)";

/// Sums the phase-tree entries whose last path segment is `name`: the
/// same phase may root on several threads ("total/.../ndfs", "check_db/ndfs").
obs::PhaseTreeEntry PhaseByName(const std::string& name) {
  obs::PhaseTreeEntry sum;
  sum.path = name;
  for (const obs::PhaseTreeEntry& entry : obs::PhaseTreeSnapshot()) {
    size_t slash = entry.path.rfind('/');
    std::string last =
        slash == std::string::npos ? entry.path : entry.path.substr(slash + 1);
    if (last != name) continue;
    sum.total_ns += entry.total_ns;
    sum.self_ns += entry.self_ns;
    sum.count += entry.count;
  }
  return sum;
}

TEST(Registry, CounterAccumulatesAndResetsInPlace) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("test.hits");
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);

  // Reset zeroes values but preserves instrument identity, so cached
  // references in instrumented code keep working.
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&registry.counter("test.hits"), &c);
  c.Add(7);
  EXPECT_EQ(registry.counter("test.hits").value(), 7u);
}

TEST(Registry, ExportsAreSortedByName) {
  obs::Registry registry;
  registry.counter("b").Add(2);
  registry.counter("a").Add(1);
  registry.counter("c").Add(3);
  auto values = registry.CounterValues();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "a");
  EXPECT_EQ(values[1].first, "b");
  EXPECT_EQ(values[2].first, "c");
}

TEST(Histogram, PowerOfTwoBuckets) {
  obs::Histogram h;
  h.Record(0);   // bucket 0 (exact zeros)
  h.Record(1);   // bucket 1: [1, 2)
  h.Record(2);   // bucket 2: [2, 4)
  h.Record(3);   // bucket 2
  h.Record(4);   // bucket 3: [4, 8)
  h.Record(100); // bucket 7: [64, 128)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.buckets()[7], 1u);
}

TEST(Histogram, BatchAddMatchesRecordPerSample) {
  const std::vector<uint64_t> samples = {5, 0, 17, 3, 1ull << 40, 5};
  obs::Histogram recorded, added;
  obs::Histogram::Batch batch;
  for (uint64_t v : samples) {
    recorded.Record(v);
    batch.Record(v);
  }
  added.Record(9);  // samples booked before the batch keep counting
  recorded.Record(9);
  added.Add(batch);
  added.Add(obs::Histogram::Batch{});  // an empty batch changes nothing
  EXPECT_EQ(added.count(), recorded.count());
  EXPECT_EQ(added.sum(), recorded.sum());
  EXPECT_EQ(added.min(), recorded.min());
  EXPECT_EQ(added.max(), recorded.max());
  EXPECT_EQ(added.buckets(), recorded.buckets());
}

TEST(PhaseTimer, RecordsOnlyWhenTimingEnabled) {
  obs::PhaseTreeReset();
  obs::SetTimingEnabled(false);
  { obs::PhaseTimer t("obs_test_disabled"); }
  EXPECT_EQ(PhaseByName("obs_test_disabled").count, 0u);

  obs::SetTimingEnabled(true);
  { obs::PhaseTimer t("obs_test_enabled"); }
  obs::SetTimingEnabled(false);
  EXPECT_EQ(PhaseByName("obs_test_enabled").count, 1u);
}

TEST(PhaseTimer, NestedTimersBuildOnePathPerPhase) {
  obs::PhaseTreeReset();
  obs::SetTimingEnabled(true);
  {
    obs::PhaseTimer outer("obs_test_outer");
    for (int i = 0; i < 2; ++i) obs::PhaseTimer inner("obs_test_inner");
  }
  obs::SetTimingEnabled(false);
  bool saw_outer = false, saw_inner = false;
  for (const obs::PhaseTreeEntry& entry : obs::PhaseTreeSnapshot()) {
    if (entry.path == "obs_test_outer") {
      saw_outer = true;
      EXPECT_EQ(entry.count, 1u);
    } else if (entry.path == "obs_test_outer/obs_test_inner") {
      saw_inner = true;
      EXPECT_EQ(entry.count, 2u);
      EXPECT_EQ(entry.self_ns, entry.total_ns);  // a leaf phase
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(JsonWriter, CommasAndEscapes) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\n");
  w.Key("n").Uint(18446744073709551615ull);
  w.Key("i").Int(-5);
  w.Key("b").Bool(true);
  w.Key("arr").BeginArray();
  w.Uint(1).Uint(2).Null();
  w.EndArray();
  w.Key("nested").BeginObject().EndObject();
  w.EndObject();
  std::string json = w.Take();
  EXPECT_EQ(json,
            "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":18446744073709551615,\"i\":-5,"
            "\"b\":true,\"arr\":[1,2,null],\"nested\":{}}");
  EXPECT_TRUE(obs::JsonParse(json).ok());
}

TEST(JsonParse, AcceptsValidRejectsMalformed) {
  EXPECT_TRUE(obs::JsonParse("null").ok());
  EXPECT_TRUE(obs::JsonParse("[1, 2.5e-3, \"x\", {\"k\": []}]").ok());
  EXPECT_TRUE(obs::JsonParse("\"\\u00e9\"").ok());
  EXPECT_FALSE(obs::JsonParse("").ok());
  EXPECT_FALSE(obs::JsonParse("{").ok());
  EXPECT_FALSE(obs::JsonParse("[1,]").ok());
  EXPECT_FALSE(obs::JsonParse("{\"a\":1,}").ok());
  EXPECT_FALSE(obs::JsonParse("{'a':1}").ok());
  EXPECT_FALSE(obs::JsonParse("01").ok());
  EXPECT_FALSE(obs::JsonParse("1 2").ok());  // trailing garbage
}

TEST(StatsJson, ContainsSchemaRequiredKeysAndValidates) {
  obs::Registry registry;
  registry.counter("engine.searches").Add(3);
  registry.histogram("graph.successors_per_snapshot").Record(4);
  std::string json = obs::RenderStatsJson(
      registry, "obs_test", {{"verdict", "{\"holds\":true}"}});
  EXPECT_TRUE(obs::JsonParse(json).ok()) << json;
  for (const char* key :
       {"\"schema_version\"", "\"generator\"", "\"counters\"",
        "\"histograms\"", "\"phases\"", "\"verdict\"", "\"process\"",
        "\"max_rss_kb\"", "\"engine.searches\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(Trace, EventsSerializeToValidChromeTraceJson) {
  obs::TraceRecorder recorder;
  recorder.Enable();
  recorder.Complete("span \"quoted\"", "phase", obs::NowNanos(), 1500,
                    "{\"db\":1}");
  recorder.Complete("plain", "phase", obs::NowNanos(), 0);
  std::string json = recorder.ToJson();
  EXPECT_TRUE(obs::JsonParse(json).ok()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"db\":1}"), std::string::npos) << json;
  // No truncation note while the buffer has room.
  EXPECT_EQ(json.find("\"ph\":\"i\""), std::string::npos) << json;
}

TEST(Trace, BufferCapDropsAndReportsOverflow) {
  obs::TraceRecorder recorder;
  recorder.Enable();
  recorder.SetMaxEvents(2);
  for (int i = 0; i < 5; ++i) {
    recorder.Complete("e", "t", obs::NowNanos(), 10);
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);
  std::string json = recorder.ToJson();
  EXPECT_TRUE(obs::JsonParse(json).ok()) << json;
  EXPECT_NE(json.find("trace_truncated"), std::string::npos);
}

TEST(Observability, VerifierRunPopulatesCountersAndTimings) {
  obs::Registry& registry = obs::Registry::Global();
  registry.Reset();
  obs::PhaseTreeReset();
  obs::SetTimingEnabled(true);

  auto comp = spec::ParseComposition(kPingPongSpec);
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto property =
      ltl::Property::Parse("G(not (exists x: Requester.got(x)))");
  ASSERT_TRUE(property.ok());
  verifier::VerifierOptions options;
  options.fresh_domain_size = 1;
  verifier::Verifier verifier(&*comp, options);
  auto result = verifier.Verify(*property);
  obs::SetTimingEnabled(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // got(a) is reachable: the property is violated and the refuting search
  // must have explored databases, snapshots, and product states.
  EXPECT_FALSE(result->holds);
  EXPECT_GT(result->stats.databases_checked, 0u);
  EXPECT_GT(result->stats.search.snapshots, 0u);
  EXPECT_GT(result->stats.search.product_states, 0u);
  EXPECT_GT(result->stats.search.inner_searches, 0u);
  EXPECT_GT(result->stats.search.leaf_cache_misses, 0u);
  EXPECT_GT(PhaseByName("graph_expand").total_ns, 0u);
  EXPECT_GT(PhaseByName("ndfs").total_ns, 0u);

  // The same numbers are mirrored into the global registry.
  EXPECT_GE(registry.counter("engine.databases_checked").value(),
            result->stats.databases_checked);
  EXPECT_GE(registry.counter("graph.snapshots").value(),
            result->stats.search.snapshots);
  EXPECT_GE(registry.counter("ndfs.product_states").value(),
            result->stats.search.product_states);
}

}  // namespace
}  // namespace wsv
