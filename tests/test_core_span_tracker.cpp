#include "core/span_tracker.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.h"

namespace fjs {
namespace {

TEST(SpanTracker, StartsEmpty) {
  SpanTracker tracker;
  EXPECT_TRUE(tracker.empty());
  EXPECT_EQ(tracker.span(), Time::zero());
}

TEST(SpanTracker, IgnoresEmptyIntervals) {
  SpanTracker tracker;
  tracker.add(Interval(Time(5), Time(5)));
  tracker.add(Interval(Time(9), Time(2)));
  EXPECT_TRUE(tracker.empty());
  EXPECT_EQ(tracker.span(), Time::zero());
}

TEST(SpanTracker, AccumulatesDisjointAndOverlapping) {
  SpanTracker tracker;
  tracker.add(Interval(Time(0), Time(4)));
  EXPECT_EQ(tracker.span(), Time(4));
  tracker.add(Interval(Time(2), Time(6)));  // 2 new units
  EXPECT_EQ(tracker.span(), Time(6));
  tracker.add(Interval(Time(6), Time(8)));  // abutting, 2 new units
  EXPECT_EQ(tracker.span(), Time(8));
  tracker.add(Interval(Time(1), Time(7)));  // fully covered, no change
  EXPECT_EQ(tracker.span(), Time(8));
  tracker.add(Interval(Time(20), Time(23)));  // disjoint component
  EXPECT_EQ(tracker.span(), Time(11));
  EXPECT_EQ(tracker.covered().component_count(), 2u);
}

TEST(SpanTracker, ClearResets) {
  SpanTracker tracker;
  tracker.add(Interval(Time(0), Time(10)));
  tracker.clear();
  EXPECT_TRUE(tracker.empty());
  EXPECT_EQ(tracker.span(), Time::zero());
  tracker.add(Interval(Time(3), Time(5)));
  EXPECT_EQ(tracker.span(), Time(2));
}

TEST(SpanTracker, MatchesSetMeasureOnRandomSequences) {
  // The incremental running measure must equal the measure of the covered
  // set after every single insert, for arbitrary insert orders.
  Rng rng(23);
  for (int round = 0; round < 100; ++round) {
    SpanTracker tracker;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 50));
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t lo = rng.uniform_int(0, 300);
      tracker.add(Interval(Time(lo), Time(lo + rng.uniform_int(0, 40))));
      ASSERT_EQ(tracker.span(), tracker.covered().measure());
    }
  }
}

TEST(SpanTracker, MatchesSetMeasureOnTimeOrderedStarts) {
  // The engine's shape: left endpoints nondecreasing (job starts, the O(1)
  // append path), with an occasional earlier-starting interval mixed in (a
  // deferred length decision, which binary-searches). Ties, abutting and
  // nested intervals are frequent at this density.
  Rng rng(29);
  for (int round = 0; round < 100; ++round) {
    SpanTracker tracker;
    std::int64_t now = 0;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
    for (std::size_t i = 0; i < n; ++i) {
      now += rng.uniform_int(0, 3);
      const std::int64_t lo =
          rng.uniform_int(0, 9) == 0 ? rng.uniform_int(0, now) : now;
      tracker.add(Interval(Time(lo), Time(lo + rng.uniform_int(0, 6))));
      ASSERT_EQ(tracker.span(), tracker.covered().measure());
    }
  }
}

}  // namespace
}  // namespace fjs
