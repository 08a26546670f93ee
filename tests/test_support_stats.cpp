#include "support/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/assert.h"
#include "support/rng.h"

namespace fjs {
namespace {

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyThrows) {
  Accumulator acc;
  EXPECT_THROW(acc.mean(), AssertionError);
  EXPECT_THROW(acc.min(), AssertionError);
  EXPECT_THROW(acc.max(), AssertionError);
}

TEST(Accumulator, SingleSampleVarianceZero) {
  Accumulator acc;
  acc.add(7.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng rng(5);
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  Accumulator b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Summary, PercentilesOnKnownData) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(100.0), 100.0, 1e-12);
  EXPECT_NEAR(s.percentile(25.0), 25.75, 1e-12);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(37.0), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, MergeConcatenates) {
  Summary a;
  a.add(1.0);
  a.add(2.0);
  Summary b;
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(Summary, RejectsBadPercentile) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1.0), AssertionError);
  EXPECT_THROW(s.percentile(101.0), AssertionError);
}

TEST(Summary, ToStringEmpty) {
  Summary s;
  EXPECT_EQ(s.to_string(), "n=0");
}

}  // namespace
}  // namespace fjs
