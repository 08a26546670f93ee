// Determinism and memoization guarantees of the batched instance miner:
// the mined result must be a pure function of MinerOptions, independent of
// the thread pool attached (or none), and the objective memo must only
// remove objective calls, never change a value.
#include "adversary/instance_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "helpers.h"
#include "offline/exact.h"
#include "sim/engine.h"
#include "support/thread_pool.h"

namespace fjs {
namespace {

MinerOptions small_options() {
  MinerOptions options;
  options.population = 24;
  options.rounds = 10;
  options.mutations_per_round = 12;
  options.jobs = 6;
  options.horizon = 8;
  options.max_laxity = 4;
  options.max_length = 3;
  return options;
}

TEST(MinerDeterminism, TrajectoryIdenticalAcrossThreadCounts) {
  const MinerResult serial = mine_worst_case("lazy", small_options());
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    MinerOptions options = small_options();
    options.pool = &pool;
    const MinerResult parallel = mine_worst_case("lazy", options);
    EXPECT_EQ(parallel.worst_ratio, serial.worst_ratio)
        << threads << " threads";
    EXPECT_EQ(parallel.trajectory, serial.trajectory) << threads
                                                      << " threads";
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
    EXPECT_EQ(parallel.worst_instance.to_string(),
              serial.worst_instance.to_string());
  }
}

TEST(MinerDeterminism, MemoOffMatchesMemoOn) {
  const MinerResult memoized = mine_worst_case("lazy", small_options());
  MinerOptions raw = small_options();
  raw.use_objective_memo = false;
  const MinerResult unmemoized = mine_worst_case("lazy", raw);
  EXPECT_EQ(memoized.trajectory, unmemoized.trajectory);
  EXPECT_EQ(memoized.worst_ratio, unmemoized.worst_ratio);
  EXPECT_EQ(memoized.evaluations, unmemoized.evaluations);
  // Hill climbing revisits near-duplicates: the memo must actually bite.
  EXPECT_GT(memoized.memo_hits, 0u);
  EXPECT_EQ(unmemoized.memo_hits, 0u);
}

TEST(MinerDeterminism, EvaluationsCountSearchEffort) {
  const MinerOptions options = small_options();
  const MinerResult result = mine_worst_case("lazy", options);
  EXPECT_EQ(result.evaluations,
            options.population + options.rounds * options.mutations_per_round);
  EXPECT_EQ(result.trajectory.size(), options.rounds + 1);
}

TEST(MinerPrefix, CacheStatsPopulatedAndValuesUnchanged) {
  // mine_worst_case replays candidates through the checkpointed prefix
  // cache. The cache must actually bite on the mutation-heavy access
  // pattern, every skipped arrival must come from a hit, and — since the
  // replayed spans are bit-identical — the search outputs must not depend
  // on it (the trajectory pins above already compare against fixed
  // values; here we pin the counters' internal consistency).
  const MinerResult result = mine_worst_case("batch", small_options());
  EXPECT_GT(result.prefix_hits, 0u);
  EXPECT_GT(result.prefix_misses, 0u);
  EXPECT_GE(result.prefix_arrivals_skipped, result.prefix_hits);
  EXPECT_GT(result.mean_prefix_depth(), 0.0);
  EXPECT_LT(result.mean_prefix_depth(),
            static_cast<double>(small_options().jobs));
  // Every objective call simulates exactly once: hit or miss, never both
  // (screened candidates never reach the simulator at all).
  EXPECT_EQ(result.prefix_hits + result.prefix_misses,
            result.evaluations - result.memo_hits - result.screen_rejects);
}

TEST(MinerPrefix, CountersStableAcrossThreadCountsInSerialBatches) {
  // Counter totals are aggregated across worker-thread caches; with the
  // same work in the same order on ONE thread they are fully determined.
  const MinerResult a = mine_worst_case("batch", small_options());
  const MinerResult b = mine_worst_case("batch", small_options());
  EXPECT_EQ(a.prefix_hits, b.prefix_hits);
  EXPECT_EQ(a.prefix_misses, b.prefix_misses);
  EXPECT_EQ(a.prefix_arrivals_skipped, b.prefix_arrivals_skipped);
  // Parallel pools redistribute candidates over per-thread caches, so only
  // the VALUES are pinned across thread counts (see MinerDeterminism);
  // totals still conserve hit+miss = simulated candidates.
  ThreadPool pool(3);
  MinerOptions options = small_options();
  options.pool = &pool;
  const MinerResult parallel = mine_worst_case("batch", options);
  EXPECT_EQ(parallel.trajectory, a.trajectory);
  EXPECT_EQ(parallel.worst_ratio, a.worst_ratio);
  EXPECT_EQ(parallel.prefix_hits + parallel.prefix_misses,
            parallel.evaluations - parallel.memo_hits -
                parallel.screen_rejects);
}

TEST(MinerScreen, PrecutPreservesTrajectoryAndCountsRejects) {
  // The lane-parallel LB pre-screen may settle a candidate with the
  // span-free upper bound min(max d+p - min a, sum p) / max p instead of
  // calling the objective. Use an objective that bound provably dominates
  // (0.75x the bound itself, recomputed from the view) and pin that
  // screening changes nothing observable except the number of objective
  // calls: settled values differ from true values but both stay at or
  // below the frozen threshold, so the trajectory, worst instance and
  // evaluation counts are bit-identical.
  const auto objective = std::function<double(InstanceView, double, Time)>(
      [](InstanceView view, double, Time) {
        const double window = time_ratio(
            view.latest_completion() - view.earliest_arrival(),
            view.max_length());
        const double work =
            time_ratio(view.total_work(), view.max_length());
        return 0.75 * std::min(window, work);
      });
  MinerOptions off = small_options();
  off.screen_lb_precut = false;
  const MinerResult plain = mine_instance(objective, off);
  MinerOptions on = small_options();
  on.screen_lb_precut = true;
  const MinerResult screened = mine_instance(objective, on);
  EXPECT_EQ(plain.trajectory, screened.trajectory);
  EXPECT_EQ(plain.worst_ratio, screened.worst_ratio);
  EXPECT_EQ(plain.evaluations, screened.evaluations);
  EXPECT_EQ(plain.worst_instance.to_string(),
            screened.worst_instance.to_string());
  EXPECT_EQ(plain.screen_rejects, 0u);
  EXPECT_GT(screened.screen_rejects, 0u);
}

TEST(MinerScreen, WorstCaseMineScreensAndStaysConsistent) {
  // mine_worst_case opts into the pre-screen (its objective is span/OPT).
  // Shapes with few long jobs keep min(window, total work) / max length
  // near 1 for most mutations while the incumbent ratio climbs toward 2,
  // so the screen must actually bite; screened candidates count as
  // evaluations but not as objective calls.
  MinerOptions options = small_options();
  options.jobs = 4;
  options.horizon = 8;
  options.max_laxity = 2;
  options.max_length = 4;
  const MinerResult result = mine_worst_case("lazy", options);
  EXPECT_GT(result.screen_rejects, 0u);
  EXPECT_LE(result.screen_rejects,
            result.evaluations - result.memo_hits);
  // Pinned: perfbench hashes screen_rejects into its mine digest, so the
  // screen must settle exactly these candidates.
  EXPECT_EQ(result.evaluations, 144u);
  EXPECT_EQ(result.screen_rejects, 19u);
}

TEST(MinerBudget, UncertifiableCandidatesAreSkippedNotFatal) {
  // A custom objective wrapping a tiny solver budget: every candidate the
  // solver cannot certify scores 0 and the mine still completes.
  MinerOptions options = small_options();
  options.jobs = 8;
  std::size_t skips = 0;
  const MinerResult result = mine_instance(
      [&skips](const Instance& instance) {
        ExactOptions exact;
        exact.max_nodes = 40;  // tight enough to trip on some candidates
        const ExactResult opt = exact_optimal(instance, exact);
        if (!opt.optimal()) {
          ++skips;
          return 0.0;
        }
        return time_ratio(opt.span, Time(Time::kTicksPerUnit));
      },
      options);
  EXPECT_GE(result.worst_ratio, 0.0);
  EXPECT_EQ(result.trajectory.size(), options.rounds + 1);
}

}  // namespace
}  // namespace fjs
