#include <gtest/gtest.h>

#include "analysis/sweep.h"
#include "helpers.h"
#include "offline/exact.h"
#include "schedulers/registry.h"
#include "support/assert.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::units;

/// The OPT bracket the harness computes for one scheduler on one instance:
/// a one-case sweep.
SchedulerAggregate sweep_one(const Instance& inst, const std::string& key) {
  const std::vector<SweepCase> cases = {
      SweepCase{.label = "one", .seed = 0, .instance = inst}};
  return run_ratio_sweep(cases, {key}, SweepOptions{.serial = true}).front();
}

TEST(Ratio, BracketOrdersEnds) {
  const Instance inst = testing::random_integral_instance(4, 20, 30, 6, 4);
  const SchedulerAggregate agg = sweep_one(inst, "batch");
  ASSERT_EQ(agg.ratio_lower.count(), 1u);
  ASSERT_EQ(agg.ratio_upper.count(), 1u);
  EXPECT_LE(agg.ratio_lower.min(), agg.ratio_upper.min() + 1e-12);
  // The online span is at least the certified lower bound.
  EXPECT_GE(agg.ratio_upper.min(), 1.0 - 1e-12);
}

TEST(Ratio, BracketContainsExactRatio) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance inst =
        testing::random_integral_instance(seed + 100, 6, 10, 4, 4);
    const SchedulerAggregate agg = sweep_one(inst, "batch+");
    const double exact =
        agg.spans.samples()[0] / exact_optimal_span(inst).to_units();
    EXPECT_GE(exact, 1.0 - 1e-12);
    EXPECT_LE(agg.ratio_lower.min(), exact + 1e-9);
    EXPECT_GE(agg.ratio_upper.min(), exact - 1e-9);
  }
}

TEST(Ratio, ClairvoyantSchedulersRouted) {
  const Instance inst = testing::random_integral_instance(9, 6, 10, 4, 4);
  // Would throw if the sweep ran Profit or CDB non-clairvoyantly.
  EXPECT_NO_THROW(sweep_one(inst, "profit"));
  EXPECT_NO_THROW(sweep_one(inst, "cdb"));
}

TEST(Sweep, MakeCasesSeedsSequentially) {
  WorkloadConfig cfg;
  cfg.job_count = 10;
  const auto cases = make_cases(cfg, "demo", 5, 100);
  ASSERT_EQ(cases.size(), 5u);
  EXPECT_EQ(cases[0].seed, 100u);
  EXPECT_EQ(cases[4].seed, 104u);
  EXPECT_EQ(cases[0].label, "demo");
  // Same seed → same instance as direct generation.
  const Instance direct = generate_workload(cfg, 102);
  EXPECT_EQ(cases[2].instance.job(3).arrival, direct.job(3).arrival);
}

TEST(Sweep, AggregatesEverySchedulerOverEveryCase) {
  WorkloadConfig cfg;
  cfg.job_count = 25;
  const auto cases = make_cases(cfg, "demo", 6, 7);
  const std::vector<std::string> keys = {"batch", "batch+", "profit"};
  const auto aggregates = run_ratio_sweep(cases, keys);
  ASSERT_EQ(aggregates.size(), 3u);
  for (std::size_t s = 0; s < keys.size(); ++s) {
    EXPECT_EQ(aggregates[s].scheduler_key, keys[s]);
    EXPECT_EQ(aggregates[s].ratio_lower.count(), 6u);
    EXPECT_EQ(aggregates[s].ratio_upper.count(), 6u);
    EXPECT_EQ(aggregates[s].spans.count(), 6u);
    // Conservative ratio is at least ~1 (online can't beat feasible OPT
    // upper bound... it CAN beat the heuristic? No: heuristic <= any
    // feasible schedule is false — heuristic is itself feasible, so
    // online >= OPT but may be < heuristic. Allow slight slack.)
    EXPECT_GT(aggregates[s].ratio_lower.min(), 0.5);
    EXPECT_LE(aggregates[s].ratio_lower.min(),
              aggregates[s].ratio_upper.max());
  }
}

TEST(Sweep, SerialAndParallelAgree) {
  WorkloadConfig cfg;
  cfg.job_count = 20;
  const auto cases = make_cases(cfg, "demo", 8, 21);
  const std::vector<std::string> keys = {"eager", "batch+", "cdb"};
  SweepOptions serial;
  serial.serial = true;
  const auto a = run_ratio_sweep(cases, keys, serial);
  SweepOptions parallel;
  const auto b = run_ratio_sweep(cases, keys, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].ratio_lower.count(), b[s].ratio_lower.count());
    EXPECT_EQ(a[s].ratio_lower.samples(), b[s].ratio_lower.samples());
    EXPECT_EQ(a[s].spans.samples(), b[s].spans.samples());
  }
}

// Golden pin: per-scheduler spans and both ratio ends on two standard_suite
// cases, recorded while consecutive sweep cases on a worker still resumed
// from mid-run engine checkpoints. Every case now replays from t=0; no
// value may move.
struct SweepGolden {
  const char* key;
  std::vector<double> spans;
  std::vector<double> ratio_lower;
  std::vector<double> ratio_upper;
};

const std::vector<SweepGolden> kSweepGolden = {
    {"eager",
     {153.72900000000001, 111.84357799999999},
     {1.0070924189955177, 1.0750672551574447},
     {1.007402870131924, 1.2953228389288394}},
    {"lazy",
     {154.73357999999999, 152.37018399999999},
     {1.0136735123629015, 1.4646186970226829},
     {1.0139859922186945, 1.764684059973382}},
    {"random",
     {154.20982599999999, 140.76890599999999},
     {1.0102423530967994, 1.3531044347037642},
     {1.0105537752469904, 1.6303231907765587}},
    {"batch",
     {154.440315, 108.290099},
     {1.0117523071364527, 1.0409103640502091},
     {1.0120641947523137, 1.2541680172693068}},
    {"batch+",
     {153.72308899999999, 101.656852},
     {1.0070536955062042, 0.97715000540832653},
     {1.007364134705522, 1.1773446851745826}},
    {"cdb",
     {153.91495599999999, 111.639476},
     {1.0083106333718992, 1.073105377856701},
     {1.0086214600409082, 1.2929590198629735}},
    {"profit",
     {154.66543899999999, 114.271165},
     {1.013227114581593, 1.098401802740909},
     {1.0135394568286662, 1.3234380775577996}},
    {"doubler*",
     {154.330603, 110.391364},
     {1.01103357401861, 1.0611082264246441},
     {1.011345240074355, 1.2785039388645709}},
    {"overlap",
     {153.900374, 103.271432},
     {1.0082151053865887, 0.99266973501526123},
     {1.0085259026076832, 1.1960440364174203}},
};

TEST(Sweep, GoldenSpansAndBracketsOnStandardSuite) {
  std::vector<SweepCase> cases;
  for (const auto& [family, seed] :
       std::vector<std::pair<std::size_t, std::uint64_t>>{{0, 11}, {4, 12}}) {
    const NamedWorkload& named = standard_suite()[family];
    auto made = make_cases(named.config, named.name, 1, seed);
    cases.push_back(std::move(made.front()));
  }
  std::vector<std::string> keys;
  for (const SweepGolden& golden : kSweepGolden) {
    keys.emplace_back(golden.key);
  }
  SweepOptions options;
  options.serial = true;
  const auto aggregates = run_ratio_sweep(cases, keys, options);
  ASSERT_EQ(aggregates.size(), kSweepGolden.size());
  for (std::size_t s = 0; s < aggregates.size(); ++s) {
    SCOPED_TRACE(kSweepGolden[s].key);
    EXPECT_EQ(aggregates[s].spans.samples(), kSweepGolden[s].spans);
    EXPECT_EQ(aggregates[s].ratio_lower.samples(),
              kSweepGolden[s].ratio_lower);
    EXPECT_EQ(aggregates[s].ratio_upper.samples(),
              kSweepGolden[s].ratio_upper);
  }
}

TEST(Sweep, RejectsEmptySchedulerList) {
  EXPECT_THROW(run_ratio_sweep({}, {}), AssertionError);
}

TEST(Sweep, RejectsEmptyCaseNamingIt) {
  // An empty case would add a span sample but no ratio sample.
  WorkloadConfig cfg;
  cfg.job_count = 5;
  std::vector<SweepCase> cases = make_cases(cfg, "full", 1, 7);
  cases.push_back(SweepCase{.label = "hollow", .seed = 8, .instance = {}});
  try {
    run_ratio_sweep(cases, {"eager"}, SweepOptions{.serial = true});
    FAIL() << "an empty case was accepted";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("case 1"), std::string::npos) << what;
    EXPECT_NE(what.find("hollow"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fjs
