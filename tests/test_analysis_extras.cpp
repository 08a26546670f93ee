// Tests for instance statistics, SVG export and the worst-case miner.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include <algorithm>

#include "adversary/instance_miner.h"
#include "analysis/instance_stats.h"
#include "analysis/svg.h"
#include "helpers.h"
#include "offline/exact.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/portfolio.h"
#include "support/assert.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::units;

TEST(InstanceStats, BasicQuantities) {
  const Instance inst = make_instance({{0, 0, 2}, {1, 5, 4}});
  const InstanceStats stats = compute_instance_stats(inst);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_DOUBLE_EQ(stats.mu, 2.0);
  EXPECT_EQ(stats.total_work, units(6.0));
  EXPECT_EQ(stats.arrival_horizon, units(1.0));
  EXPECT_DOUBLE_EQ(stats.rigid_fraction, 0.5);
  // load = 6 / (latest completion 9 − 0).
  EXPECT_NEAR(stats.load_factor, 6.0 / 9.0, 1e-12);
  EXPECT_NE(stats.to_string().find("2 jobs"), std::string::npos);
}

TEST(InstanceStats, RejectsEmpty) {
  const Instance empty;
  EXPECT_THROW(compute_instance_stats(empty), AssertionError);
  EXPECT_THROW(guarantee_table(Instance{}), AssertionError);
}

TEST(InstanceStats, GuaranteeTableUsesMu) {
  const Instance inst = make_instance({{0, 0, 1}, {0, 0, 3}});
  const std::string table = guarantee_table(inst);
  EXPECT_NE(table.find("batch+"), std::string::npos);
  EXPECT_NE(table.find("4 (mu+1, tight)"), std::string::npos);  // mu=3
  EXPECT_NE(table.find("1.618"), std::string::npos);
}

TEST(Svg, ContainsJobRectsAndSpan) {
  const Instance inst = make_instance({{0, 0, 2}, {3, 3, 1}});
  const Schedule sched = Schedule::from_starts({units(0.0), units(3.0)});
  const std::string svg = render_svg_timeline(inst, sched);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("data-job=\"0\""), std::string::npos);
  EXPECT_NE(svg.find("data-job=\"1\""), std::string::npos);
  // Two disjoint components -> two span rects.
  std::size_t span_rects = 0;
  std::size_t pos = 0;
  while ((pos = svg.find("data-role=\"span\"", pos)) != std::string::npos) {
    ++span_rects;
    pos += 1;
  }
  EXPECT_EQ(span_rects, 2u);
  EXPECT_NE(svg.find("span 3"), std::string::npos);
}

TEST(Svg, WritesFile) {
  const Instance inst = make_instance({{0, 0, 1}});
  const Schedule sched = Schedule::from_starts({units(0.0)});
  const std::string path = ::testing::TempDir() + "fjs_timeline.svg";
  ASSERT_TRUE(write_svg_timeline(inst, sched, path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("</svg>"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Svg, FoldsExcessLanes) {
  InstanceBuilder builder;
  for (int i = 0; i < 100; ++i) {
    builder.add_lax(i, 0.0, 1.0);
  }
  const Instance inst = builder.build();
  Schedule sched(inst.size());
  for (JobId id = 0; id < inst.size(); ++id) {
    sched.set_start(id, inst.job(id).arrival);
  }
  SvgOptions options;
  options.max_lanes = 10;
  const std::string svg = render_svg_timeline(inst, sched, options);
  EXPECT_NE(svg.find("more jobs"), std::string::npos);
}

TEST(Svg, RejectsBadOptions) {
  const Instance inst = make_instance({{0, 0, 1}});
  const Schedule sched = Schedule::from_starts({units(0.0)});
  SvgOptions options;
  options.width = 10;
  EXPECT_THROW(render_svg_timeline(inst, sched, options), AssertionError);
}

TEST(Miner, DeterministicAndCertified) {
  MinerOptions options;
  options.population = 16;
  options.rounds = 4;
  options.mutations_per_round = 8;
  options.jobs = 5;
  const MinerResult a = mine_worst_case("batch+", options);
  const MinerResult b = mine_worst_case("batch+", options);
  EXPECT_DOUBLE_EQ(a.worst_ratio, b.worst_ratio);
  // The reported ratio is recomputable from the artifact.
  const auto scheduler = make_scheduler("batch+");
  const Time span = simulate_span(a.worst_instance, *scheduler, false);
  const Time opt = exact_optimal_span(a.worst_instance);
  EXPECT_DOUBLE_EQ(a.worst_ratio, time_ratio(span, opt));
}

TEST(Miner, TrajectoryMonotone) {
  MinerOptions options;
  options.population = 16;
  options.rounds = 6;
  options.mutations_per_round = 8;
  options.jobs = 5;
  const MinerResult result = mine_worst_case("batch", options);
  ASSERT_EQ(result.trajectory.size(), options.rounds + 1);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1]);
  }
  EXPECT_GT(result.evaluations, options.population);
}

TEST(Miner, FindsNontrivialRatioForLazy) {
  MinerOptions options;
  options.population = 32;
  options.rounds = 10;
  options.mutations_per_round = 16;
  options.jobs = 6;
  options.seed = 7;
  const MinerResult result = mine_worst_case("lazy", options);
  EXPECT_GT(result.worst_ratio, 1.5);
}

TEST(Miner, RespectsBatchPlusBound) {
  MinerOptions options;
  options.population = 32;
  options.rounds = 8;
  options.mutations_per_round = 16;
  options.jobs = 6;
  const MinerResult result = mine_worst_case("batch+", options);
  const double mu = result.worst_instance.mu();
  EXPECT_LE(result.worst_ratio, mu + 1.0 + 1e-9);
}

TEST(Miner, GeneralObjectiveSeparatesSchedulers) {
  // Maximize span(lazy)/span(batch+): must find an instance where batch+
  // clearly wins (ratio > 1.3 with modest search effort).
  MinerOptions options;
  options.population = 64;
  options.rounds = 12;
  options.mutations_per_round = 16;
  options.jobs = 6;
  const auto lazy = make_scheduler("lazy");
  const auto bp = make_scheduler("batch+");
  const PortfolioEntry entries[] = {{lazy.get(), false}, {bp.get(), false}};
  PortfolioRunner runner;
  std::vector<Time> spans;
  const MinerResult result = mine_instance(
      [&](InstanceView view, double) {
        runner.run_spans(view, entries, spans);
        return time_ratio(spans[0], spans[1]);
      },
      options);
  EXPECT_GT(result.worst_ratio, 1.3);
}

TEST(Miner, RejectsBadOptions) {
  MinerOptions options;
  options.population = 0;
  EXPECT_THROW(mine_worst_case("batch", options), AssertionError);
}

}  // namespace
}  // namespace fjs
