// Tests for the telemetry layer: counter/histogram correctness, cross-
// thread merging (live and retired cells), delta semantics, snapshot JSON
// filtering by stability, and the Chrome-tracing recorder round-trip.
//
// Metric registration is process-global and permanent, so every metric
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

const HistogramValue* find_histogram(const Snapshot& snap,
                                     const std::string& name) {
  for (const HistogramValue& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(Telemetry, CounterAddsAreVisibleInCaptureDeltas) {
  static Counter counter{"test.counter_basic", Stability::kDeterministic};
  const Snapshot before = capture();
  counter.add(5);
  counter.increment();
  const Snapshot diff = delta(before, capture());
  const CounterValue* value = find_counter(diff, "test.counter_basic");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->value, 6u);
  EXPECT_EQ(value->stability, Stability::kDeterministic);
}

TEST(Telemetry, HistogramRecordsCountSumMaxAndLogBuckets) {
  static Histogram hist{"test.hist_basic", Stability::kDeterministic};
  const Snapshot before = capture();
  hist.record(0);
  hist.record(1);
  hist.record(2);
  hist.record(3);
  hist.record(1024);
  const Snapshot diff = delta(before, capture());
  const HistogramValue* value = find_histogram(diff, "test.hist_basic");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 5u);
  EXPECT_EQ(value->sum, 1030u);
  EXPECT_EQ(value->max, 1024u);
  ASSERT_EQ(value->buckets.size(), kHistogramBuckets);
  // bucket i counts values with bit_width == i: {0}, {1}, {2,3}, ...
  EXPECT_EQ(value->buckets[0], 1u);   // 0
  EXPECT_EQ(value->buckets[1], 1u);   // 1
  EXPECT_EQ(value->buckets[2], 2u);   // 2, 3
  EXPECT_EQ(value->buckets[11], 1u);  // 1024
}

TEST(Telemetry, ExitedThreadsFlushIntoTheRetiredAggregate) {
  static Counter counter{"test.counter_threads", Stability::kDeterministic};
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

TEST(Telemetry, ScopedTimerRecordsOneSample) {
  static Histogram hist{"test.hist_timer", Stability::kTiming};
  const Snapshot before = capture();
  { const ScopedTimer timer(hist); }
  const Snapshot diff = delta(before, capture());
  const HistogramValue* value = find_histogram(diff, "test.hist_timer");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 1u);
}

// delta() is a pure function over Snapshot values, so it is testable with
// synthetic inputs regardless of the build flag.
TEST(Telemetry, DeltaClampsAndTreatsMissingNamesAsZero) {
  Snapshot begin;
  begin.counters.push_back({"a", Stability::kDeterministic, 10});
  begin.counters.push_back({"c", Stability::kDeterministic, 99});
  Snapshot end;
  end.counters.push_back({"a", Stability::kDeterministic, 17});
  end.counters.push_back({"b", Stability::kDeterministic, 4});
  end.counters.push_back({"c", Stability::kDeterministic, 50});  // "reset"
  const Snapshot diff = delta(begin, end);
  ASSERT_EQ(diff.counters.size(), 3u);
  EXPECT_EQ(find_counter(diff, "a")->value, 7u);
  EXPECT_EQ(find_counter(diff, "b")->value, 4u);   // absent from begin
  EXPECT_EQ(find_counter(diff, "c")->value, 0u);   // clamped, not wrapped
}

TEST(Telemetry, DeltaSubtractsHistogramsAndZeroesMaxWhenEmpty) {
  HistogramValue base;
  base.name = "h";
  base.count = 3;
  base.sum = 30;
  base.max = 16;
  base.buckets.assign(kHistogramBuckets, 0);
  base.buckets[5] = 3;

  HistogramValue grown = base;
  grown.count = 5;
  grown.sum = 90;
  grown.max = 32;
  grown.buckets[6] = 2;

  Snapshot begin;
  begin.histograms.push_back(base);
  Snapshot end;
  end.histograms.push_back(grown);
  const Snapshot diff = delta(begin, end);
  const HistogramValue* value = find_histogram(diff, "h");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 2u);
  EXPECT_EQ(value->sum, 60u);
  EXPECT_EQ(value->max, 32u);  // end-of-region max (upper bound)
  EXPECT_EQ(value->buckets[5], 0u);
  EXPECT_EQ(value->buckets[6], 2u);

  // A region that recorded nothing reports max 0.
  Snapshot same_begin;
  same_begin.histograms.push_back(base);
  Snapshot same_end;
  same_end.histograms.push_back(base);
  const Snapshot empty_diff = delta(same_begin, same_end);
  EXPECT_EQ(empty_diff.histograms[0].count, 0u);
  EXPECT_EQ(empty_diff.histograms[0].max, 0u);
}

TEST(Telemetry, SnapshotJsonFiltersTimingMetricsWhenAskedTo) {
  Snapshot snap;
  snap.counters.push_back({"stable.c", Stability::kDeterministic, 12});
  snap.counters.push_back({"noisy.c", Stability::kTiming, 34});
  HistogramValue hist;
  hist.name = "noisy.h";
  hist.stability = Stability::kTiming;
  hist.count = 1;
  hist.sum = 5;
  hist.max = 5;
  hist.buckets.assign(kHistogramBuckets, 0);
  hist.buckets[3] = 1;
  snap.histograms.push_back(hist);

  const JsonValue stable = snapshot_json(snap, /*deterministic_only=*/true);
  EXPECT_NE(stable.get("counters").find("stable.c"), nullptr);
  EXPECT_EQ(stable.get("counters").find("noisy.c"), nullptr);
  EXPECT_EQ(stable.get("histograms").find("noisy.h"), nullptr);

  const JsonValue full = snapshot_json(snap, /*deterministic_only=*/false);
  EXPECT_DOUBLE_EQ(full.get("counters").get("noisy.c").as_number(), 34.0);
  const JsonValue& h = full.get("histograms").get("noisy.h");
  EXPECT_DOUBLE_EQ(h.get("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.get("max").as_number(), 5.0);
  // One sample in bucket 3 ([4, 8)): both quantiles report the floor 4.
  EXPECT_DOUBLE_EQ(h.get("p50").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(h.get("p99").as_number(), 4.0);
  // The block dumps byte-identically given the same snapshot.
  EXPECT_EQ(snapshot_json(snap, true).dump(), stable.dump());
}

TEST(Telemetry, SnapshotJsonKeepsIntegersAbove2Pow53Exact) {
  // 2^53 + 1 is the first integer a double cannot hold.
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  Snapshot snap;
  snap.counters.push_back({"big.c", Stability::kDeterministic, big});
  snap.counters.push_back(
      {"top.c", Stability::kDeterministic, ~std::uint64_t{0}});
  HistogramValue hist;
  hist.name = "big.h";
  hist.stability = Stability::kDeterministic;
  hist.count = big;
  hist.sum = ~std::uint64_t{0} - 2;
  hist.max = big + 2;
  hist.buckets.assign(kHistogramBuckets, 0);
  hist.buckets[54] = big;  // every sample in [2^53, 2^54)
  snap.histograms.push_back(hist);

  const std::string text = snapshot_json(snap, true).dump();
  EXPECT_NE(text.find("\"big.c\": 9007199254740993"), std::string::npos);
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.get("counters").get("big.c").as_unsigned(), big);
  EXPECT_EQ(parsed.get("counters").get("top.c").as_unsigned(),
            ~std::uint64_t{0});
  const JsonValue& h = parsed.get("histograms").get("big.h");
  EXPECT_EQ(h.get("count").as_unsigned(), big);
  EXPECT_EQ(h.get("sum").as_unsigned(), ~std::uint64_t{0} - 2);
  EXPECT_EQ(h.get("max").as_unsigned(), big + 2);
  EXPECT_EQ(h.get("p50").as_unsigned(), std::uint64_t{1} << 53);
  EXPECT_EQ(h.get("p99").as_unsigned(), std::uint64_t{1} << 53);
  EXPECT_EQ(parsed.dump(), text);
}

TEST(Telemetry, TraceRecorderRoundTripsThroughChromeJson) {
  reset_trace();
  EXPECT_FALSE(trace_enabled());
  {
    // With tracing off, scopes and instants must leave no events behind.
    const TraceScope off_scope("unit-off", "test");
    trace_instant("unit-off-instant", "test");
  }
  set_trace_enabled(true);
  {
    const TraceScope scope("unit-span", "test");
    trace_instant("unit-instant", "test");
  }
  set_trace_enabled(false);

  const JsonValue doc = trace_json();
  EXPECT_EQ(doc.get("displayTimeUnit").as_string(), "ms");
  const JsonValue& events = doc.get("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  bool saw_span = false;
  bool saw_instant = false;
  double last_ts = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const std::string name = event.get("name").as_string();
    EXPECT_TRUE(name.find("unit-off") == std::string::npos) << name;
    EXPECT_EQ(event.get("cat").as_string(), "test");
    EXPECT_DOUBLE_EQ(event.get("pid").as_number(), 1.0);
    EXPECT_GE(event.get("ts").as_number(), last_ts);  // sorted by time
    last_ts = event.get("ts").as_number();
    if (name == "unit-span") {
      saw_span = true;
      EXPECT_EQ(event.get("ph").as_string(), "X");
      EXPECT_GE(event.get("dur").as_number(), 0.0);
    } else if (name == "unit-instant") {
      saw_instant = true;
      EXPECT_EQ(event.get("ph").as_string(), "i");
      EXPECT_EQ(event.find("dur"), nullptr);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_EQ(trace_dropped_events(), 0u);

  reset_trace();
  EXPECT_EQ(trace_json().get("traceEvents").size(), 0u);
}

}  // namespace
}  // namespace fjs::telemetry
