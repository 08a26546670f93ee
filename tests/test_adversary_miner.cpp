// Determinism and memoization guarantees of the instance miner: the mined
// result must be a pure function of MinerOptions, also when several mines
// run concurrently on a pool, and the memo and the pre-screen must only
// remove objective calls, never change a value.
#include "adversary/instance_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "helpers.h"
#include "offline/exact.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/portfolio.h"
#include "support/parallel.h"
#include "support/telemetry.h"
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

/// span(a)/span(b) through a runner and schedulers owned by this mine —
/// the shape of E16's pairwise objective.
MinerResult mine_pair(const char* a, const char* b,
                      const MinerOptions& options) {
  const auto sa = make_scheduler(a);
  const auto sb = make_scheduler(b);
  const PortfolioEntry entries[] = {{sa.get(), sa->requires_clairvoyance()},
                                    {sb.get(), sb->requires_clairvoyance()}};
  PortfolioRunner runner;
  std::vector<Time> spans;
  return mine_instance(
      [&](InstanceView view, double) {
        runner.run_spans(view, entries, spans);
        return time_ratio(spans[0], spans[1]);
      },
      options);
}

void expect_same_mine(const MinerResult& actual, const MinerResult& expected) {
  EXPECT_EQ(actual.worst_ratio, expected.worst_ratio);
  EXPECT_EQ(actual.trajectory, expected.trajectory);
  EXPECT_EQ(actual.evaluations, expected.evaluations);
  EXPECT_EQ(actual.memo_hits, expected.memo_hits);
  EXPECT_EQ(actual.screen_rejects, expected.screen_rejects);
  EXPECT_EQ(actual.budget_skips, expected.budget_skips);
  EXPECT_EQ(actual.worst_instance.to_string(),
            expected.worst_instance.to_string());
}

TEST(MinerDeterminism, ConcurrentMinesMatchSerial) {
  // Each mine is a serial loop that owns its replay state; running several
  // at once on a pool (as E14 and E16 do) must not change any of them.
  const std::vector<const char*> keys = {"lazy", "batch+", "cdb",
                                         "doubler*"};
  const auto run = [&](std::size_t i) {
    MinerOptions options = small_options();
    options.seed += i;
    return i < keys.size() ? mine_worst_case(keys[i], options)
                           : mine_pair("lazy", "batch+", options);
  };
  const std::size_t mines = keys.size() + 1;
  std::vector<MinerResult> serial(mines);
  for (std::size_t i = 0; i < mines; ++i) {
    serial[i] = run(i);
  }
  ThreadPool pool(4);
  std::vector<MinerResult> concurrent(mines);
  parallel_for(pool, mines, [&](std::size_t i) { concurrent[i] = run(i); });
  for (std::size_t i = 0; i < mines; ++i) {
    SCOPED_TRACE(i < keys.size() ? keys[i] : "lazy vs batch+");
    expect_same_mine(concurrent[i], serial[i]);
  }
  // The worst-case mines revisit near-duplicates: the memo must bite.
  EXPECT_GT(serial[0].memo_hits, 0u);
}

TEST(MinerDeterminism, EvaluationsCountSearchEffort) {
  const MinerOptions options = small_options();
  const MinerResult result = mine_worst_case("lazy", options);
  EXPECT_EQ(result.evaluations,
            options.population + options.rounds * options.mutations_per_round);
  EXPECT_EQ(result.trajectory.size(), options.rounds + 1);
}

TEST(MinerTelemetry, CountersEqualResultFields) {
  // The manifest's deterministic miner.* counters are flushed from the
  // MinerResult fields; bracket one span/OPT mine and one view-objective
  // mine and check the totals. miner.evaluations counts objective calls,
  // i.e. candidates neither memoized nor screened.
  MinerOptions worst_options = small_options();
  worst_options.jobs = 4;
  worst_options.max_laxity = 2;
  worst_options.max_length = 4;
  MinerOptions view_options = small_options();
  view_options.screen_lb_precut = true;
  const auto objective = [](InstanceView view, double) {
    return 0.75 * time_ratio(view.total_work(), view.max_length());
  };
  const telemetry::Snapshot before = telemetry::capture();
  const MinerResult worst = mine_worst_case("lazy", worst_options);
  const MinerResult mined = mine_instance(objective, view_options);
  const telemetry::Snapshot diff =
      telemetry::delta(before, telemetry::capture());
  const auto counter = [&diff](const std::string& name) {
    for (const telemetry::CounterValue& value : diff.counters) {
      if (value.name == name) return value.value;
    }
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  EXPECT_GT(worst.memo_hits, 0u);
  EXPECT_GT(worst.screen_rejects, 0u);
  EXPECT_GT(mined.screen_rejects, 0u);
  EXPECT_EQ(counter("miner.memo_hits"), worst.memo_hits + mined.memo_hits);
  EXPECT_EQ(counter("miner.screen_rejects"),
            worst.screen_rejects + mined.screen_rejects);
  EXPECT_EQ(counter("miner.evaluations"),
            worst.evaluations - worst.memo_hits - worst.screen_rejects +
                mined.evaluations - mined.memo_hits - mined.screen_rejects);
  EXPECT_EQ(counter("miner.budget_skips"), worst.budget_skips);
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
  const auto objective = std::function<double(InstanceView, double)>(
      [](InstanceView view, double) {
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

// Golden pin: mine_worst_case output at a small shape for one
// non-clairvoyant and two clairvoyant schedulers, recorded while candidate
// replays still resumed from mid-run engine checkpoints. Every candidate
// now replays from t=0; spans, and therefore every mined field, must not
// move.
struct MinerGolden {
  const char* key;
  double worst_ratio;
  std::size_t evaluations;
  std::size_t memo_hits;
  std::size_t screen_rejects;
  std::size_t budget_skips;
  std::vector<double> trajectory;
  std::uint64_t rows_digest;  ///< FNV-1a over the worst instance's rows
};

std::uint64_t rows_digest(const Instance& instance) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= bits & 0xffU;
      h *= 0x100000001b3ULL;
      bits >>= 8;
    }
  };
  for (JobId id = 0; id < instance.size(); ++id) {
    const Job& job = instance.job(id);
    mix(job.arrival.ticks());
    mix(job.deadline.ticks());
    mix(job.length.ticks());
  }
  return h;
}

MinerOptions golden_options() {
  MinerOptions options;
  options.jobs = 8;
  options.population = 32;
  options.rounds = 8;
  options.mutations_per_round = 8;
  return options;
}

const std::vector<MinerGolden> kMinerGolden = {
    {"batch+", 1.5, 96, 18, 0, 0,
     {1.2222222222222223, 1.2222222222222223, 1.25, 1.25, 1.375, 1.375, 1.375,
      1.4444444444444444, 1.5},
     0xdf9bb3f8e7bb34f6ULL},
    {"cdb", 1.5555555555555556, 96, 21, 0, 0,
     {1.3333333333333333, 1.3333333333333333, 1.4444444444444444,
      1.4444444444444444, 1.5555555555555556, 1.5555555555555556,
      1.5555555555555556, 1.5555555555555556, 1.5555555555555556},
     0x7b5364a8ca849f2cULL},
    {"doubler*", 1.4444444444444444, 96, 19, 0, 0,
     {1.2222222222222223, 1.2222222222222223, 1.2222222222222223,
      1.2222222222222223, 1.3333333333333333, 1.3333333333333333,
      1.3333333333333333, 1.3333333333333333, 1.4444444444444444},
     0xd2130ba0fba1c580ULL},
};

TEST(MinerGolden, WorstCaseOutputMatchesPinnedValues) {
  for (const MinerGolden& golden : kMinerGolden) {
    SCOPED_TRACE(golden.key);
    const MinerResult result = mine_worst_case(golden.key, golden_options());
    EXPECT_EQ(result.worst_ratio, golden.worst_ratio);
    EXPECT_EQ(result.evaluations, golden.evaluations);
    EXPECT_EQ(result.memo_hits, golden.memo_hits);
    EXPECT_EQ(result.screen_rejects, golden.screen_rejects);
    EXPECT_EQ(result.budget_skips, golden.budget_skips);
    EXPECT_EQ(result.trajectory, golden.trajectory);
    EXPECT_EQ(rows_digest(result.worst_instance), golden.rows_digest)
        << std::hex << "actual 0x" << rows_digest(result.worst_instance);
  }
}

TEST(MinerBudget, UncertifiableCandidatesAreSkippedNotFatal) {
  // A custom objective wrapping a tiny solver budget: every candidate the
  // solver cannot certify scores 0 and the mine still completes.
  MinerOptions options = small_options();
  options.jobs = 8;
  std::size_t skips = 0;
  const MinerResult result = mine_instance(
      [&skips](InstanceView view, double) {
        ExactOptions exact;
        exact.max_nodes = 16;  // tight enough to trip on some candidates
        // A view has no owning Instance for a witness schedule or a
        // heuristic seed; total work is a feasible incumbent span.
        exact.span_only = true;
        exact.seed_with_heuristic = false;
        exact.seed_span = view.total_work();
        const ExactResult opt = exact_optimal(view, exact);
        if (!opt.optimal()) {
          ++skips;
          return 0.0;
        }
        return time_ratio(opt.span, Time(Time::kTicksPerUnit));
      },
      options);
  // The budget trips on some objective calls, not on all of them.
  EXPECT_GT(skips, 0u);
  EXPECT_LT(skips, result.evaluations - result.memo_hits);
  EXPECT_GE(result.worst_ratio, 0.0);
  EXPECT_EQ(result.trajectory.size(), options.rounds + 1);
}

}  // namespace
}  // namespace fjs
