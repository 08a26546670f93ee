// Tests for the telemetry layer: counter correctness, cross-thread
// merging (live and retired cells), delta semantics, snapshot JSON, and
// the Chrome-tracing recorder round-trip.
//
// Counter registration is process-global and permanent, so every counter
// defined here uses a "test." prefix and function-local statics (one
// registration per binary run, never per test invocation).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "support/json.h"
#include "support/telemetry.h"

namespace fjs::telemetry {
namespace {

const CounterValue* find_counter(const Snapshot& snap,
                                 const std::string& name) {
  for (const CounterValue& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(Telemetry, CounterAddsAreVisibleInCaptureDeltas) {
  static Counter counter{"test.counter_basic"};
  const Snapshot before = capture();
  counter.add(5);
  counter.increment();
  const Snapshot diff = delta(before, capture());
  const CounterValue* value = find_counter(diff, "test.counter_basic");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->value, 6u);
}

TEST(Telemetry, ExitedThreadsFlushIntoTheRetiredAggregate) {
  static Counter counter{"test.counter_threads"};
  const Snapshot before = capture();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) counter.increment();
    });
  }
  for (std::thread& worker : workers) worker.join();
  counter.add(7);  // and one live-thread contribution
  const Snapshot diff = delta(before, capture());
  const CounterValue* value = find_counter(diff, "test.counter_threads");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->value, 4007u);
}

// delta() is a pure function over Snapshot values, so it is testable with
// synthetic inputs regardless of the build flag.
TEST(Telemetry, DeltaClampsAndTreatsMissingNamesAsZero) {
  Snapshot begin;
  begin.counters.push_back({"a", 10});
  begin.counters.push_back({"c", 99});
  Snapshot end;
  end.counters.push_back({"a", 17});
  end.counters.push_back({"b", 4});
  end.counters.push_back({"c", 50});  // "reset"
  const Snapshot diff = delta(begin, end);
  ASSERT_EQ(diff.counters.size(), 3u);
  EXPECT_EQ(find_counter(diff, "a")->value, 7u);
  EXPECT_EQ(find_counter(diff, "b")->value, 4u);   // absent from begin
  EXPECT_EQ(find_counter(diff, "c")->value, 0u);   // clamped, not wrapped
}

TEST(Telemetry, SnapshotJsonKeepsIntegersAbove2Pow53Exact) {
  // 2^53 + 1 is the first integer a double cannot hold.
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  Snapshot snap;
  snap.counters.push_back({"big.c", big});
  snap.counters.push_back({"top.c", ~std::uint64_t{0}});

  const std::string text = snapshot_json(snap).dump();
  EXPECT_NE(text.find("\"big.c\": 9007199254740993"), std::string::npos);
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.get("counters").get("big.c").as_unsigned(), big);
  EXPECT_EQ(parsed.get("counters").get("top.c").as_unsigned(),
            ~std::uint64_t{0});
  EXPECT_EQ(parsed.dump(), text);
  // The block dumps byte-identically given the same snapshot.
  EXPECT_EQ(snapshot_json(snap).dump(), text);
}

TEST(Telemetry, TraceRecorderRoundTripsThroughChromeJson) {
  reset_trace();
  EXPECT_FALSE(trace_enabled());
  {
    // With tracing off, a scope must leave no event behind.
    const TraceScope off_scope("unit-off", "test");
  }
  set_trace_enabled(true);
  {
    const TraceScope outer("unit-outer", "test");
    const TraceScope inner("unit-inner", "test");
  }
  set_trace_enabled(false);

  // Read the document back from its text, as a trace viewer would.
  const JsonValue doc = JsonValue::parse(trace_json().dump());
  EXPECT_EQ(doc.get("displayTimeUnit").as_string(), "ms");
  const JsonValue& events = doc.get("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  std::uint64_t last_ts = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const std::string name = event.get("name").as_string();
    EXPECT_TRUE(name == "unit-outer" || name == "unit-inner") << name;
    EXPECT_EQ(event.get("cat").as_string(), "test");
    EXPECT_EQ(event.get("ph").as_string(), "X");
    // Whole microseconds and ids, all written as exact integers.
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      EXPECT_EQ(event.get(field).kind(), JsonValue::Kind::kUnsigned)
          << field;
    }
    EXPECT_EQ(event.get("pid").as_unsigned(), 1u);
    EXPECT_GE(event.get("tid").as_unsigned(), 1u);
    EXPECT_GE(event.get("ts").as_unsigned(), last_ts);  // sorted by time
    last_ts = event.get("ts").as_unsigned();
  }
  EXPECT_EQ(trace_dropped_events(), 0u);

  reset_trace();
  EXPECT_EQ(trace_json().get("traceEvents").size(), 0u);
}

}  // namespace
}  // namespace fjs::telemetry
