// Compile-level test: the umbrella header is self-contained and exposes
// the whole public API coherently (one end-to-end flow through it).
#include "fjs.h"

#include <gtest/gtest.h>

namespace fjs {
namespace {

TEST(Umbrella, VersionExposed) {
  EXPECT_STREQ(kVersion, "1.0.0");
}

TEST(Umbrella, EndToEndThroughPublicApi) {
  // Generate -> schedule online -> measure against OPT -> render.
  WorkloadConfig config;
  config.job_count = 25;
  config.integral = true;
  config.laxity_max = 4.0;
  const Instance inst = generate_workload(config, 123);

  const auto scheduler = make_scheduler("batch+");
  const SimulationResult run = simulate(inst, *scheduler, false);
  EXPECT_TRUE(run.schedule.is_valid(run.instance));

  const std::vector<SweepCase> cases = {
      SweepCase{.label = "umbrella", .seed = 123, .instance = inst}};
  const auto aggregates =
      run_ratio_sweep(cases, {"batch+"}, SweepOptions{.serial = true});
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_EQ(aggregates[0].spans.samples(),
            std::vector<double>{run.span().to_units()});
  EXPECT_GE(aggregates[0].ratio_upper.min(), 1.0 - 1e-12);

  const std::string chart = render_gantt(run.instance, run.schedule);
  EXPECT_FALSE(chart.empty());
}

TEST(Umbrella, ExposesPortfolioAndTelemetry) {
  // The post-seed subsystems must be reachable through the umbrella
  // alone: columnar substrate, batched portfolio kernel, telemetry
  // snapshots.
  JobTable table;
  table.push_back(Time::from_units(0), Time::from_units(1),
                  Time::from_units(2));
  table.push_back(Time::from_units(1), Time::from_units(3),
                  Time::from_units(1));
  const Instance inst{JobTable(table.view())};

  const auto eager = make_scheduler("eager");
  const PortfolioEntry entry{eager.get(), /*clairvoyant=*/true};
  PortfolioRunner runner;
  const Time batched = runner.run_span(inst, entry);
  EXPECT_EQ(batched, runner.run_span(inst.view(), entry));

  const telemetry::Snapshot begin = telemetry::capture();
  const telemetry::Snapshot end = telemetry::capture();
  EXPECT_EQ(telemetry::delta(begin, end).counters.size(),
            begin.counters.size());
}

}  // namespace
}  // namespace fjs
