#include "offline/exact.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/job_table.h"
#include "helpers.h"
#include "support/assert.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs {
namespace {

using testing::brute_force_optimal_span;
using testing::make_instance;
using testing::units;

TEST(Exact, SingleJob) {
  const Instance inst = make_instance({{0, 5, 3}});
  const ExactResult result = exact_optimal(inst);
  EXPECT_EQ(result.span, units(3.0));
  result.schedule.validate(inst);
}

TEST(Exact, TwoOverlappableJobs) {
  const Instance inst = make_instance({{0, 5, 2}, {0, 0, 2}});
  EXPECT_EQ(exact_optimal_span(inst), units(2.0));
}

TEST(Exact, ForcedDisjointJobs) {
  // Second job arrives after the first's latest completion.
  const Instance inst = make_instance({{0, 1, 2}, {5, 6, 2}});
  EXPECT_EQ(exact_optimal_span(inst), units(4.0));
}

TEST(Exact, AlignmentBeatsNaivePlacements) {
  // Shorts pinned at [0,1) and [3,4); both longs can start at 3, stacking
  // on the second short: span = 1 + 2 = 3. Naive placements give 4+.
  const Instance inst =
      make_instance({{0, 0, 1}, {3, 3, 1}, {0, 6, 2}, {3, 6, 2}});
  EXPECT_EQ(exact_optimal_span(inst), units(3.0));
}

TEST(Exact, EmptyInstance) {
  const Instance inst;
  const ExactResult result = exact_optimal(inst);
  EXPECT_EQ(result.span, Time::zero());
}

TEST(Exact, SolvesOffGridInstance) {
  // The critical-start argument never uses integrality, so unlike the grid
  // reference solver the branch-and-bound takes arbitrary tick instances.
  const Instance inst = make_instance({{0, 1, 1.5}});
  EXPECT_EQ(exact_optimal_span(inst), units(1.5));
  // The reference solver still demands grid alignment.
  EXPECT_THROW(exact_optimal_reference(inst), AssertionError);
  ExactOptions options;
  options.quantum = Time(Time::kTicksPerUnit / 2);
  EXPECT_EQ(exact_optimal_span_reference(inst, options), units(1.5));
}

TEST(Exact, BudgetExhaustionIsStructured) {
  const Instance inst = testing::random_integral_instance(1, 8, 20, 8, 4);
  ExactOptions options;
  options.max_nodes = 3;
  const ExactResult result = exact_optimal(inst, options);
  EXPECT_EQ(result.status, ExactStatus::kBudgetExceeded);
  EXPECT_FALSE(result.optimal());
  // Best-so-far is still a valid schedule achieving the reported span.
  result.schedule.validate(inst);
  EXPECT_EQ(result.schedule.span(inst), result.span);
  EXPECT_GE(result.nodes_explored, options.max_nodes);
  // Its span upper-bounds the true optimum.
  EXPECT_GE(result.span, exact_optimal_span(inst));
  // The throwing convenience wrapper preserves the legacy hard-stop.
  EXPECT_THROW(exact_optimal_span(inst, options), AssertionError);
}

TEST(Exact, ScheduleAchievesReportedSpan) {
  const Instance inst = testing::random_integral_instance(7, 6, 10, 4, 4);
  const ExactResult result = exact_optimal(inst);
  result.schedule.validate(inst);
  EXPECT_EQ(result.schedule.span(inst), result.span);
  EXPECT_GT(result.nodes_explored, 0u);
}

/// The exact solver must agree with naive full enumeration on random tiny
/// instances — the strongest correctness anchor in the repo, since every
/// measured competitive ratio leans on this solver.
class ExactVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVsBruteForce, Agrees) {
  const Instance inst = testing::random_integral_instance(
      GetParam(), /*jobs=*/5, /*horizon=*/8, /*max_laxity=*/4,
      /*max_length=*/3);
  EXPECT_EQ(exact_optimal_span(inst), brute_force_optimal_span(inst))
      << inst.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ExactVsBruteForce,
                         ::testing::Range<std::uint64_t>(0, 90));

/// Differential corpus: the branch-and-bound must match the legacy grid DFS
/// span-for-span at the sizes the old solver could still handle (n <= 10).
class BnBVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnBVsReference, Agrees) {
  const std::uint64_t seed = GetParam();
  const std::size_t jobs = 6 + seed % 5;  // 6..10
  const Instance inst =
      testing::random_integral_instance(seed, jobs, /*horizon=*/12,
                                        /*max_laxity=*/5, /*max_length=*/4);
  const ExactResult bnb = exact_optimal(inst);
  const ExactResult ref = exact_optimal_reference(inst);
  ASSERT_TRUE(bnb.optimal());
  EXPECT_EQ(bnb.span, ref.span) << inst.to_string();
  bnb.schedule.validate(inst);
  EXPECT_EQ(bnb.schedule.span(inst), bnb.span);
  // Pin the general critical-start branching too — integral instances
  // normally take the grid fast path, which would leave it untested.
  ExactOptions general;
  general.use_integral_fast_path = false;
  const ExactResult crit = exact_optimal(inst, general);
  ASSERT_TRUE(crit.optimal());
  EXPECT_EQ(crit.span, ref.span) << inst.to_string();
  crit.schedule.validate(inst);
  EXPECT_EQ(crit.schedule.span(inst), crit.span);
  // The same default solve (heuristic seed, witness schedule) over a
  // JobTable view with one row patched in place, as the miner holds it,
  // must equal the solve on the materialized Instance.
  JobTable table{inst.view()};
  const auto victim = static_cast<JobId>(seed % jobs);
  const Job job = table.job(victim);
  table.set(victim, job.arrival, job.deadline + units(1.0), job.length);
  const Instance patched{JobTable(table.view())};
  const ExactResult on_view = exact_optimal(table.view());
  const ExactResult on_owned = exact_optimal(patched);
  ASSERT_TRUE(on_owned.optimal());
  EXPECT_EQ(on_view.status, on_owned.status);
  EXPECT_EQ(on_view.span, on_owned.span) << patched.to_string();
  EXPECT_EQ(on_view.nodes_explored, on_owned.nodes_explored);
  EXPECT_EQ(on_view.schedule.starts(), on_owned.schedule.starts());
  EXPECT_EQ(on_view.span, exact_optimal_reference(patched).span);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BnBVsReference,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(Exact, SolvesFourteenJobsWithinDefaultBudget) {
  for (const std::uint64_t seed : {11u, 23u, 37u}) {
    const Instance inst = testing::random_integral_instance(
        seed, /*jobs=*/14, /*horizon=*/16, /*max_laxity=*/6, /*max_length=*/5);
    const ExactResult result = exact_optimal(inst);
    EXPECT_TRUE(result.optimal()) << "seed " << seed;
    result.schedule.validate(inst);
    EXPECT_EQ(result.schedule.span(inst), result.span);
  }
}

/// Multiplying every time by 2^35 puts job lengths of three units and more
/// past 2^56 ticks, where the grid's packed (marginal, start) sort key no
/// longer fits; instances with such a job take general critical-start
/// branching. Scaling every time by one factor scales the optimum by it.
TEST(Exact, ScaledInstanceSolvesToScaledOptimum) {
  constexpr std::int64_t kScale = std::int64_t{1} << 35;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Instance inst = testing::random_integral_instance(
        seed, /*jobs=*/8 + seed % 5, /*horizon=*/16, /*max_laxity=*/6,
        /*max_length=*/5);
    InstanceBuilder builder;
    for (JobId id = 0; id < inst.size(); ++id) {
      const Job job = inst.job(id);
      builder.add_ticks(Time(job.arrival.ticks() * kScale),
                        Time(job.deadline.ticks() * kScale),
                        Time(job.length.ticks() * kScale));
    }
    const Instance scaled = builder.build();
    const ExactResult result = exact_optimal(scaled);
    ASSERT_TRUE(result.optimal()) << "seed " << seed;
    EXPECT_EQ(result.span.ticks(), exact_optimal_span(inst).ticks() * kScale)
        << "seed " << seed;
    result.schedule.validate(scaled);
    EXPECT_EQ(result.schedule.span(scaled), result.span);
  }
}

/// Jobs whose feasible windows [a, d+p) are disjoint never overlap, so the
/// optimum of two instances laid side by side is the sum of their optima,
/// whether the second starts far beyond the first's horizon or exactly at
/// it (half-open windows that abut share no instant). Without the heuristic
/// seed each part's seed placement is the same alone and side by side, so
/// the search runs the same component solves. The only extra work is the
/// seed re-solve: when exactly one part beats its seed, the other part's
/// components are solved again to report their first optimal leaf.
TEST(Exact, WindowComponentsAddUp) {
  const auto side_by_side = [](const Instance& first, const Instance& second,
                               Time shift) {
    InstanceBuilder builder;
    for (const Instance* part : {&first, &second}) {
      for (JobId id = 0; id < part->size(); ++id) {
        const Job job = part->job(id);
        const Time by = part == &second ? shift : Time::zero();
        builder.add_ticks(job.arrival + by, job.deadline + by, job.length);
      }
    }
    return builder.build();
  };
  const auto beats_seed = [](const Instance& inst, const ExactResult& r) {
    Schedule at_arrival(inst.size());
    for (JobId id = 0; id < inst.size(); ++id) {
      at_arrival.set_start(id, inst.job(id).arrival);
    }
    return r.span < at_arrival.span(inst);
  };
  ExactOptions unseeded;
  unseeded.seed_with_heuristic = false;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance a = testing::random_integral_instance(
        seed, /*jobs=*/8 + seed % 3, /*horizon=*/12, /*max_laxity=*/5,
        /*max_length=*/4);
    const Instance b = testing::random_integral_instance(
        seed + 100, /*jobs=*/8 + seed % 3, /*horizon=*/12, /*max_laxity=*/5,
        /*max_length=*/4);
    const Time abut = a.latest_completion() - b.earliest_arrival();
    const Time far = abut + units(3.0);
    for (const Time shift : {far, abut}) {
      const Instance both = side_by_side(a, b, shift);
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (shift == abut ? " abutting" : " apart"));
      for (const bool seeded : {true, false}) {
        const ExactOptions options = seeded ? ExactOptions{} : unseeded;
        const ExactResult ra = exact_optimal(a, options);
        const ExactResult rb = exact_optimal(b, options);
        const ExactResult r = exact_optimal(both, options);
        ASSERT_TRUE(ra.optimal() && rb.optimal() && r.optimal());
        EXPECT_EQ(r.span, ra.span + rb.span);
        r.schedule.validate(both);
        EXPECT_EQ(r.schedule.span(both), r.span);
        if (seeded) {
          continue;
        }
        const std::size_t parts = ra.nodes_explored + rb.nodes_explored;
        if (beats_seed(a, ra) == beats_seed(b, rb)) {
          EXPECT_EQ(r.nodes_explored, parts);
        } else {
          EXPECT_GT(r.nodes_explored, parts);
        }
      }
    }
  }
}

// Golden pin: the optimal span, an FNV-1a digest of the witness starts and
// the search-node count on a fixed corpus. The witness is whichever optimal
// schedule the search meets first, so any change to move ordering, pruning
// or witness recording shows up here rather than as silently different
// E12/E14/E16 artifacts; the node count also catches a pruning or ordering
// change that happens to keep the first optimal leaf.
struct GoldenRow {
  std::string name;
  std::int64_t span_ticks;
  std::uint64_t digest;
  std::size_t nodes;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::int64_t value) {
  auto bits = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    h ^= bits & 0xffU;
    h *= kFnvPrime;
    bits >>= 8;
  }
}

/// Folds the span and every witness start of one solve into `h`. Every
/// corpus instance must solve to optimality.
ExactResult fold_solve(std::uint64_t& h, const Instance& instance,
                       const ExactOptions& options) {
  ExactResult result = exact_optimal(instance, options);
  EXPECT_TRUE(result.optimal()) << instance.to_string();
  fnv_mix(h, result.span.ticks());
  for (JobId id = 0; id < instance.size(); ++id) {
    fnv_mix(h, result.schedule.start(id).ticks());
  }
  return result;
}

/// One row per block of instances: the span and node columns are the
/// block's sums, the digest folds every solve in order.
GoldenRow fold_block(std::string name, const std::vector<Instance>& block,
                     const ExactOptions& options) {
  std::uint64_t h = kFnvOffset;
  std::int64_t span_sum = 0;
  std::size_t node_sum = 0;
  for (const Instance& instance : block) {
    const ExactResult result = fold_solve(h, instance, options);
    span_sum += result.span.ticks();
    node_sum += result.nodes_explored;
  }
  return GoldenRow{std::move(name), span_sum, h, node_sum};
}

std::vector<GoldenRow> compute_golden_rows() {
  std::vector<GoldenRow> rows;
  const auto suite = integral_suite(15);
  for (std::size_t f = 0; f < suite.size(); ++f) {
    std::vector<Instance> block;
    for (const std::uint64_t seed : {77u, 177u, 277u}) {
      block.push_back(generate_workload(suite[f].config, seed + f));
    }
    rows.push_back(fold_block("integral15/" + suite[f].name, block, {}));
  }
  // Seeds on which the solver's former transposition cache scored hits
  // (heavy-tail, proportional-lax, sparse): witnesses must not depend on
  // it.
  const std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>>
      revisited = {{3, {6, 11, 18, 23, 30, 39}},
                   {6, {8, 31, 48, 52, 61, 62}},
                   {7, {0, 13, 16, 24, 66, 115}}};
  for (const auto& [f, seeds] : revisited) {
    std::vector<Instance> block;
    for (const std::uint64_t seed : seeds) {
      block.push_back(generate_workload(suite[f].config, seed));
    }
    rows.push_back(
        fold_block("integral15-revisited/" + suite[f].name, block, {}));
  }
  // 100 random integral instances, 8..12 jobs, in blocks of 25: on the
  // integral fast path, under general critical-start branching, and
  // without the heuristic seed (so that the witness is always one the
  // search found, never the seed schedule).
  ExactOptions general;
  general.use_integral_fast_path = false;
  ExactOptions unseeded;
  unseeded.seed_with_heuristic = false;
  for (std::uint64_t b = 0; b < 4; ++b) {
    std::vector<Instance> block;
    for (std::uint64_t seed = b * 25; seed < (b + 1) * 25; ++seed) {
      block.push_back(testing::random_integral_instance(
          seed, /*jobs=*/8 + seed % 5, /*horizon=*/16, /*max_laxity=*/6,
          /*max_length=*/5));
    }
    rows.push_back(fold_block("random/" + std::to_string(b), block, {}));
    rows.push_back(
        fold_block("random-general/" + std::to_string(b), block, general));
    rows.push_back(
        fold_block("random-unseeded/" + std::to_string(b), block, unseeded));
  }
  return rows;
}

// Spans and digests recorded while the solver still had its transposition
// cache; node counts recorded after the solver began to solve each window
// component on its own.
const std::vector<GoldenRow> kExpected = {
    {"integral15/uniform-lo-lax", 30000000, 0x88993d5aabee7483ULL, 3},
    {"integral15/uniform-hi-lax", 25000000, 0x474a2512972d0464ULL, 66},
    {"integral15/bimodal", 24000000, 0x0b68eaed574c898dULL, 21},
    {"integral15/heavy-tail", 16000000, 0x4b6d9eee90ad772dULL, 218},
    {"integral15/bursty", 24000000, 0xa4c279cfe5a8411fULL, 7},
    {"integral15/rigid", 26000000, 0x89d6c7b0e431c436ULL, 5},
    {"integral15/proportional-lax", 18000000, 0xdc4e28a7c2a366d0ULL, 2496},
    {"integral15/sparse", 67000000, 0xbaa96f9542bd1d0fULL, 215},
    {"integral15-revisited/heavy-tail", 38000000, 0xdd08abe8918e14baULL, 7717},
    {"integral15-revisited/proportional-lax", 37000000, 0x1a94f467741accedULL,
     10783},
    {"integral15-revisited/sparse", 144000000, 0x7eccf728ad19e6e4ULL, 474},
    {"random/0", 302000000, 0x1f33707d1f81dd22ULL, 827},
    {"random-general/0", 302000000, 0xec42765d8a6f73a2ULL, 159784},
    {"random-unseeded/0", 302000000, 0x4e0f0ee01ead9c4aULL, 985},
    {"random/1", 298000000, 0x9bfca3609397b7d6ULL, 606},
    {"random-general/1", 298000000, 0x5e7d3e832a5ff54bULL, 64139},
    {"random-unseeded/1", 298000000, 0x703a61fa0b6a4d46ULL, 712},
    {"random/2", 312000000, 0x6bc895c40479c6abULL, 1777},
    {"random-general/2", 312000000, 0x20286ff99e819ecbULL, 161979},
    {"random-unseeded/2", 312000000, 0xc294d9ba97fbf949ULL, 1902},
    {"random/3", 306000000, 0xacc2688e7c19d56bULL, 1290},
    {"random-general/3", 306000000, 0xe103948e51eab339ULL, 98896},
    {"random-unseeded/3", 306000000, 0x2138b7b9bcfda819ULL, 1439},
};

TEST(ExactGolden, SpansAndWitnessesMatchPinnedCorpus) {
  const std::vector<GoldenRow> rows = compute_golden_rows();
  ASSERT_EQ(rows.size(), kExpected.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].name);
    EXPECT_EQ(rows[i].name, kExpected[i].name);
    EXPECT_EQ(rows[i].span_ticks, kExpected[i].span_ticks);
    EXPECT_EQ(rows[i].digest, kExpected[i].digest)
        << std::hex << "actual 0x" << rows[i].digest;
    EXPECT_EQ(rows[i].nodes, kExpected[i].nodes);
  }
}

}  // namespace
}  // namespace fjs
