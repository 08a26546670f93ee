// Cross-family property matrix: every (workload family × seed) cell runs
// all schedulers and checks validity plus the theorem bounds against the
// measurement bracket (span <= bound · OPT-upper-bound is implied by
// span <= bound · OPT, so a violation here is a real bug).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analysis/sweep.h"
#include "helpers.h"
#include "schedulers/classify_by_duration.h"
#include "schedulers/profit.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs {
namespace {

class FamilyProperties
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  Instance make() const {
    const auto& suite = standard_suite();
    const auto family = static_cast<std::size_t>(std::get<0>(GetParam()));
    WorkloadConfig config = suite[family].config;
    config.job_count = 60;
    return generate_workload(config, std::get<1>(GetParam()));
  }

  /// The harness's OPT bracket for each key on this cell: a one-case
  /// sweep. ratio_lower is online / OPT-upper-bound, ratio_upper is
  /// online / OPT-lower-bound.
  static std::vector<SchedulerAggregate> sweep(
      const Instance& inst, const std::vector<std::string>& keys) {
    const std::vector<SweepCase> cases = {
        SweepCase{.label = "cell", .seed = 0, .instance = inst}};
    return run_ratio_sweep(cases, keys, SweepOptions{.serial = true});
  }
};

TEST_P(FamilyProperties, EverySchedulerProducesValidSchedules) {
  const Instance inst = make();
  for (const auto& spec : scheduler_registry()) {
    const auto scheduler = spec.make();
    const SimulationResult result =
        simulate(inst, *scheduler, spec.clairvoyant);
    EXPECT_TRUE(result.schedule.is_valid(result.instance)) << spec.key;
  }
}

TEST_P(FamilyProperties, SpanOrderingSanity) {
  const Instance inst = make();
  // Nobody beats the certified lower bound; everyone beats serial work.
  std::vector<std::string> keys;
  for (const auto& spec : scheduler_registry()) {
    keys.push_back(spec.key);
  }
  const auto aggregates = sweep(inst, keys);
  for (std::size_t s = 0; s < keys.size(); ++s) {
    ASSERT_EQ(aggregates[s].ratio_upper.count(), 1u) << keys[s];
    EXPECT_GE(aggregates[s].ratio_upper.min(), 1.0 - 1e-12) << keys[s];
    EXPECT_LE(aggregates[s].spans.max(), inst.total_work().to_units())
        << keys[s];
  }
}

TEST_P(FamilyProperties, BatchPlusBoundViaBracket) {
  const Instance inst = make();
  // span <= (mu+1)·OPT <= (mu+1)·opt_upper.
  EXPECT_LE(sweep(inst, {"batch+"})[0].ratio_lower.max(),
            (inst.mu() + 1.0) * (1 + 1e-12));
}

TEST_P(FamilyProperties, ProfitBoundViaBracket) {
  const Instance inst = make();
  const double k = ProfitScheduler::optimal_k();
  const double bound = 2.0 * k + 2.0 + 1.0 / (k - 1.0);
  EXPECT_LE(sweep(inst, {"profit"})[0].ratio_lower.max(), bound * (1 + 1e-12));
}

TEST_P(FamilyProperties, CdbBoundViaBracket) {
  const Instance inst = make();
  const double alpha = CdbScheduler::optimal_alpha();
  const double bound = 3.0 * alpha + 4.0 + 2.0 / (alpha - 1.0);
  EXPECT_LE(sweep(inst, {"cdb"})[0].ratio_lower.max(), bound * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    SuiteGrid, FamilyProperties,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values<std::uint64_t>(11, 22, 33)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>&
           param_info) {
      return standard_suite()[static_cast<std::size_t>(
                                  std::get<0>(param_info.param))]
                 .name.substr(0, 3) +
             std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace fjs
