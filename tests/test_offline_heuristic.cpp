// Golden pin for the offline heuristic: the span and an FNV-1a digest of
// every start on a fixed corpus. The heuristic's output feeds the upper
// end of every bracketed competitive ratio, so any change to its search
// (candidate generation, tie-breaks, pass order) must show up here rather
// than as silently shifted verdicts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "offline/heuristic.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs {
namespace {

struct GoldenRow {
  std::string name;
  std::int64_t span_ticks;
  std::uint64_t digest;
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

/// Folds the span and every start of one heuristic run into `h`; returns
/// the span.
std::int64_t fold_run(std::uint64_t& h, const Instance& instance,
                      const HeuristicOptions& options) {
  const HeuristicResult result = heuristic_optimal(instance, options);
  fnv_mix(h, result.span.ticks());
  for (JobId id = 0; id < instance.size(); ++id) {
    fnv_mix(h, result.schedule.start(id).ticks());
  }
  return result.span.ticks();
}

GoldenRow run_instance(std::string name, const Instance& instance,
                       const HeuristicOptions& options) {
  std::uint64_t h = kFnvOffset;
  const std::int64_t span = fold_run(h, instance, options);
  return GoldenRow{std::move(name), span, h};
}

std::vector<GoldenRow> compute_rows() {
  std::vector<GoldenRow> rows;
  const auto& suite = standard_suite();
  for (const std::size_t n : {std::size_t{60}, std::size_t{300}}) {
    for (std::size_t f = 0; f < suite.size(); ++f) {
      WorkloadConfig config = suite[f].config;
      config.job_count = n;
      const Instance instance = generate_workload(config, 1000 + f);
      rows.push_back(run_instance(suite[f].name + "/" + std::to_string(n),
                                  instance, HeuristicOptions{}));
    }
  }
  // n = 1000: descents run many passes, so most evaluations are of jobs
  // whose window has not changed since their last one.
  for (std::size_t f = 0; f < suite.size(); ++f) {
    WorkloadConfig config = suite[f].config;
    config.job_count = 1000;
    const Instance instance = generate_workload(config, 2000 + f);
    rows.push_back(run_instance(suite[f].name + "/1000", instance,
                                HeuristicOptions{}));
  }
  // One job about 50x longer than the rest (mean length 2.5 units): its
  // interval reaches across the windows of many jobs that start after it,
  // so the scans that look back for it must start at or before its slot.
  {
    WorkloadConfig config = suite[0].config;
    config.job_count = 300;
    const Instance base = generate_workload(config, 3000);
    std::vector<Job> jobs;
    for (JobId id = 0; id < base.size(); ++id) {
      jobs.push_back(base.job(id));
    }
    Job long_job;
    long_job.arrival = base.earliest_arrival() + Time::from_units(30.0);
    long_job.deadline = long_job.arrival + Time::from_units(20.0);
    long_job.length = Time::from_units(125.0);
    jobs.push_back(long_job);
    rows.push_back(run_instance("one-long-job/301", Instance(std::move(jobs)),
                                HeuristicOptions{}));
  }
  // The exact solver's incumbent seed: no restarts, at most 8 passes.
  HeuristicOptions seeding;
  seeding.restarts = 0;
  seeding.max_passes = 8;
  const auto integral = integral_suite(15);
  for (std::size_t f = 0; f < integral.size(); ++f) {
    const Instance instance = generate_workload(integral[f].config, 77 + f);
    rows.push_back(
        run_instance("integral15/" + integral[f].name, instance, seeding));
  }
  // Fuzz instances (ties, duplicate jobs, zero laxity, near-Time::max()
  // magnitudes), folded in blocks of 100 seeds; the span column is the
  // block's span sum, wrapped mod 2^64 (near-max spans overflow int64).
  const FuzzGenConfig fuzz;
  for (std::uint64_t block = 0; block < 3; ++block) {
    std::uint64_t h = kFnvOffset;
    std::int64_t span_sum = 0;
    for (std::uint64_t seed = block * 100; seed < (block + 1) * 100; ++seed) {
      const std::int64_t span =
          fold_run(h, generate_fuzz_instance(fuzz, seed), HeuristicOptions{});
      span_sum = static_cast<std::int64_t>(static_cast<std::uint64_t>(span_sum) +
                                           static_cast<std::uint64_t>(span));
    }
    rows.push_back(GoldenRow{"fuzz/" + std::to_string(block), span_sum, h});
  }
  return rows;
}

const std::vector<GoldenRow> kExpected = {
    {"uniform-lo-lax/60", 32387451, 0x2a0e70f8b16f79a6ULL},
    {"uniform-hi-lax/60", 26538980, 0x5eb634d11b9871d5ULL},
    {"bimodal/60", 36773723, 0xbcc0f1156ebd35f9ULL},
    {"heavy-tail/60", 25100813, 0x1075708d8ea7aca8ULL},
    {"bursty/60", 19114303, 0x2ca255f0350682b0ULL},
    {"rigid/60", 32178274, 0x2a982be8647105a3ULL},
    {"proportional-lax/60", 19151991, 0x79d7cfd99426bfbfULL},
    {"sparse/60", 98490679, 0x7827ac625921bd72ULL},
    {"uniform-lo-lax/300", 159742743, 0x38de1937bcd17cabULL},
    {"uniform-hi-lax/300", 125351541, 0x7e11b87b45412729ULL},
    {"bimodal/300", 147098279, 0x05857d16d09d70d6ULL},
    {"heavy-tail/300", 142104212, 0xb44df98396b5dbb1ULL},
    {"bursty/300", 120195600, 0x75a22810f13413d3ULL},
    {"rigid/300", 157943622, 0xd6d01695eb761904ULL},
    {"proportional-lax/300", 94955499, 0x288d5654c240c7a1ULL},
    {"sparse/300", 476524488, 0x14f9e4566ad4b27bULL},
    {"uniform-lo-lax/1000", 488325028, 0x6f665ffaf3f9cb6cULL},
    {"uniform-hi-lax/1000", 396140203, 0xa6a724d382121ecfULL},
    {"bimodal/1000", 487534253, 0xdfc5294bb0bddc0eULL},
    {"heavy-tail/1000", 459621001, 0x6b4b71535aab7128ULL},
    {"bursty/1000", 386271365, 0x38937fa29f5157fcULL},
    {"rigid/1000", 501046394, 0x646f79d05bf62141ULL},
    {"proportional-lax/1000", 329051604, 0x99effd1cf95fb780ULL},
    {"sparse/1000", 1487196848, 0x9f2087de7374c57fULL},
    {"one-long-job/301", 164782367, 0x65a9ddbd8b16c692ULL},
    {"integral15/uniform-lo-lax", 10000000, 0xdf51ac5bcd00066eULL},
    {"integral15/uniform-hi-lax", 10000000, 0xde746ffe1872e3d8ULL},
    {"integral15/bimodal", 7000000, 0x12554b2db4628ddcULL},
    {"integral15/heavy-tail", 7000000, 0x0f14c388ab676525ULL},
    {"integral15/bursty", 4000000, 0x8104286b19aaf14fULL},
    {"integral15/rigid", 9000000, 0xda9869cd605c3f52ULL},
    {"integral15/proportional-lax", 8000000, 0xde79c452932e6eaeULL},
    {"integral15/sparse", 20000000, 0x507060013e484b2fULL},
    {"fuzz/0", -3405928085939295727, 0x40285f73401a5730ULL},
    {"fuzz/1", -2274490586678165127, 0x87f0569df6388a49ULL},
    {"fuzz/2", -2089160973360895254, 0x14b0a24495e4cec5ULL},
};

TEST(OfflineHeuristicGolden, SpansAndStartsMatchPinnedCorpus) {
  const std::vector<GoldenRow> rows = compute_rows();
  ASSERT_EQ(rows.size(), kExpected.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].name);
    EXPECT_EQ(rows[i].name, kExpected[i].name);
    EXPECT_EQ(rows[i].span_ticks, kExpected[i].span_ticks);
    EXPECT_EQ(rows[i].digest, kExpected[i].digest)
        << std::hex << "actual 0x" << rows[i].digest;
  }
}

}  // namespace
}  // namespace fjs
