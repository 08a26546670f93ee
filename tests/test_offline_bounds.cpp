#include <gtest/gtest.h>

#include "helpers.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::units;

TEST(MandatoryBound, LaxityLessThanLengthForcesCoverage) {
  // laxity 1 < p 3 => [d, a+p) = [1, 3) mandatory.
  const Instance inst = make_instance({{0, 1, 3}});
  EXPECT_EQ(mandatory_lower_bound(inst), units(2.0));
}

TEST(MandatoryBound, LooseJobContributesNothing) {
  const Instance inst = make_instance({{0, 10, 2}});
  EXPECT_EQ(mandatory_lower_bound(inst), Time::zero());
}

TEST(MandatoryBound, UnionNotSum) {
  // Two rigid jobs with overlapping mandatory regions.
  const Instance inst = make_instance({{0, 0, 3}, {1, 1, 3}});
  EXPECT_EQ(mandatory_lower_bound(inst), units(4.0));  // [0,4), not 6
}

TEST(ChainBound, SequentialForcedJobs) {
  // J1 arrives after J0's latest completion; J2 after J1's.
  const Instance inst =
      make_instance({{0, 1, 2}, {3, 4, 2}, {6, 7, 2}});
  EXPECT_EQ(chain_lower_bound(inst), units(6.0));
}

TEST(ChainBound, PicksHeaviestChain) {
  // Two chains: {J0 (p=1), J2 (p=1)} and {J1 (p=5)} — heavy single job
  // wins over the 2-link light chain.
  const Instance inst = make_instance({{0, 0, 1}, {0, 4, 5}, {2, 9, 1}});
  EXPECT_EQ(chain_lower_bound(inst), units(5.0));
}

TEST(ChainBound, NoForcedDisjointness) {
  const Instance inst = make_instance({{0, 5, 2}, {0, 5, 2}, {0, 5, 2}});
  EXPECT_EQ(chain_lower_bound(inst), units(2.0));  // any single job
}

TEST(ChainBound, EmptyInstance) {
  const Instance empty;
  EXPECT_EQ(chain_lower_bound(empty), Time::zero());
  EXPECT_EQ(best_lower_bound(empty), Time::zero());
}

TEST(MaxLengthBound, Simple) {
  const Instance inst = make_instance({{0, 9, 1}, {0, 9, 4}});
  EXPECT_EQ(max_length_lower_bound(inst), units(4.0));
}

TEST(BestBound, TakesMaximum) {
  // Chain bound 4 beats mandatory 0 and max length 2.
  const Instance inst = make_instance({{0, 1, 2}, {4, 8, 2}});
  EXPECT_EQ(best_lower_bound(inst), units(4.0));
}

TEST(Heuristic, ValidOnCraftedInstance) {
  const Instance inst =
      make_instance({{0, 0, 1}, {3, 3, 1}, {0, 6, 2}, {3, 6, 2}});
  const HeuristicResult result = heuristic_optimal(inst);
  result.schedule.validate(inst);
  EXPECT_EQ(result.schedule.span(inst), result.span);
  // On this instance the heuristic should find the true optimum (3):
  // both longs stack at t=3 over the second short.
  EXPECT_EQ(result.span, units(3.0));
}

TEST(Heuristic, EmptyInstance) {
  const Instance empty;
  const HeuristicResult result = heuristic_optimal(empty);
  EXPECT_EQ(result.span, Time::zero());
}

TEST(Heuristic, BeatsDeadlineScheduleWhenAlignmentHelps) {
  // All-at-deadline spans 3 disjoint units; aligning on one point spans 1.
  const Instance inst =
      make_instance({{0, 2, 1}, {0, 5, 1}, {0, 9, 1}});
  EXPECT_EQ(heuristic_span(inst), units(1.0));
}

/// Sandwich property: LB <= OPT <= heuristic on random instances, with the
/// heuristic usually tight on small ones.
class BoundsSandwich : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsSandwich, LowerBoundOptHeuristicOrdered) {
  const Instance inst = testing::random_integral_instance(
      GetParam() + 500, /*jobs=*/6, /*horizon=*/10, /*max_laxity=*/4,
      /*max_length=*/4);
  const Time lb = best_lower_bound(inst);
  const Time opt = exact_optimal_span(inst);
  const Time heur = heuristic_span(inst);
  EXPECT_LE(lb, opt) << inst.to_string();
  EXPECT_LE(opt, heur) << inst.to_string();
  // The heuristic should stay within 50% of optimal on these tiny cases.
  EXPECT_LE(time_ratio(heur, opt), 1.5) << inst.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BoundsSandwich,
                         ::testing::Range<std::uint64_t>(0, 60));

}  // namespace
}  // namespace fjs
