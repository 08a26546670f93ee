// Regression tests for the edge-case bugfix sweep: CsvWriter fail-loud
// semantics, RandomizedScheduler tied timer/deadline events, the Doubler
// window-close overflow, saturating Time helpers, the offline heuristic's
// near-Time::min() window edge and Time::max() spans, the strengthened
// same-tick trace rules, and the prepared-replay overflow check.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "analysis/instance_stats.h"
#include "core/job_table.h"
#include "core/time.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "helpers.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/doubler.h"
#include "schedulers/randomized.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/portfolio.h"
#include "sim/trace_check.h"
#include "support/assert.h"
#include "support/csv.h"

namespace fjs {
namespace {

using testing::make_instance;

TEST(CsvWriterRegression, OpenFailureThrowsInsteadOfSilentlyDroppingRows) {
  EXPECT_THROW(
      CsvWriter("/nonexistent-dir-fjs-test/out.csv", {"a", "b"}),
      AssertionError);
}

TEST(CsvWriterRegression, RowWidthMismatchThrows) {
  const auto path = std::filesystem::temp_directory_path() / "fjs_csv_w.csv";
  CsvWriter csv(path.string(), {"a", "b"});
  EXPECT_THROW(csv.write_row({"only-one"}), AssertionError);
  EXPECT_THROW(csv.write_row({"1", "2", "3"}), AssertionError);
  csv.write_row({"1", "2"});
  std::filesystem::remove(path);
}

TEST(CsvWriterRegression, WriteFailureThrows) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  EXPECT_THROW(
      {
        CsvWriter csv("/dev/full", {"col"});
        const std::string big(1 << 16, 'x');
        for (int i = 0; i < 64; ++i) {
          csv.write_row({big});
        }
      },
      AssertionError);
}

TEST(CsvWriterRegression, NonFiniteValuesGetCanonicalSpellings) {
  const auto path = std::filesystem::temp_directory_path() / "fjs_csv_n.csv";
  {
    CsvWriter csv(path.string(), {"nan", "pinf", "ninf", "num"});
    csv.write_row_numeric({std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1.5});
  }
  std::ifstream in(path);
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(row, "nan,inf,-inf,1.5");
  std::filesystem::remove(path);
}

// A one-tick-laxity job draws its random start offset from {0, 1}; the
// offset-1 draw lands the timer exactly on the deadline tick, where the
// deadline event (higher queue priority) force-starts the job first.
// Before the fix, the timer callback then called start_job on a job that
// was no longer pending and the engine threw mid-simulation.
TEST(RandomizedRegression, TimerTiedWithDeadlineIsHandled) {
  InstanceBuilder builder;
  for (int i = 0; i < 12; ++i) {
    builder.add_ticks(Time(i * 3), Time(i * 3 + 1), Time(5));
  }
  const Instance inst = builder.build();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomizedScheduler scheduler(seed);
    SimulationResult result;
    ASSERT_NO_THROW(result = simulate(inst, scheduler, /*clairvoyant=*/false,
                                      /*record_trace=*/true))
        << "seed " << seed;
    EXPECT_TRUE(result.schedule.is_valid(result.instance));
    EXPECT_TRUE(check_trace(result.instance, result.schedule, result.trace)
                    .empty());
  }
}

// Found by fuzzing (seed 498): 2·p(flag) overflowed int64 for adversarial
// lengths, the window "closed" at a negative tick, and same-deadline jobs
// were left unstarted past their starting deadline.
TEST(DoublerRegression, NearOverflowLengthsDoNotWrapTheWindowClose) {
  InstanceBuilder builder;
  builder.add_ticks(Time(0), Time(0), Time(1));
  builder.add_ticks(Time(0), Time(0), Time(8'074'744'658'794'000'000));
  const Instance inst = builder.build();
  DoublerScheduler scheduler;
  SimulationResult result;
  ASSERT_NO_THROW(result = simulate(inst, scheduler, /*clairvoyant=*/true,
                                    /*record_trace=*/true));
  EXPECT_TRUE(result.schedule.is_valid(result.instance));
  EXPECT_TRUE(
      check_trace(result.instance, result.schedule, result.trace).empty());
}

TEST(DoublerRegression, HugeArrivalDuringOpenWindowDoesNotOverflow) {
  // Arrival near Time::max() while a window is open: the completion
  // estimate now() + p must saturate, not wrap into the window.
  const std::int64_t top = Time::max().ticks() - 10;
  InstanceBuilder builder;
  builder.add_ticks(Time(top - 4), Time(top - 4), Time(3));
  builder.add_ticks(Time(top - 3), Time(top - 2), Time(9));
  const Instance inst = builder.build();
  DoublerScheduler scheduler;
  SimulationResult result;
  ASSERT_NO_THROW(
      result = simulate(inst, scheduler, /*clairvoyant=*/true, true));
  EXPECT_TRUE(result.schedule.is_valid(result.instance));
}

TEST(TimeSaturating, SubClampsInsteadOfWrapping) {
  EXPECT_EQ(Time(12).saturating_sub(Time(7)), Time(5));
  EXPECT_EQ(Time(-3).saturating_sub(Time(4)), Time(-7));
  EXPECT_EQ(Time::min().saturating_sub(Time(1)), Time::min());
  EXPECT_EQ(Time::max().saturating_sub(Time(-1)), Time::max());
  // rhs == Time::min() cannot be negated; the overflow branch must still
  // pick the correct side of the clamp.
  EXPECT_EQ(Time(1).saturating_sub(Time::min()), Time::max());
  EXPECT_EQ(Time::zero().saturating_sub(Time::min()), Time::max());
}

TEST(TimeSaturating, AddAndMulClampInsteadOfWrapping) {
  EXPECT_EQ(Time::max().saturating_add(Time(1)), Time::max());
  EXPECT_EQ(Time::min().saturating_add(Time(-1)), Time::min());
  EXPECT_EQ(Time(5).saturating_add(Time(7)), Time(12));
  EXPECT_EQ(Time::max().saturating_mul(2), Time::max());
  EXPECT_EQ(Time::max().saturating_mul(-2), Time::min());
  EXPECT_EQ(Time(-3).saturating_mul(4), Time(-12));
  EXPECT_EQ(Time(8'074'744'658'794'000'000).saturating_mul(2), Time::max());
}

// Jobs whose latest completion d+p exceeds Time::max() used to slip into
// instances and wrap deep inside the engine; the Instance constructor now
// rejects them up front.
TEST(InstanceRegression, RejectsJobWhoseLatestCompletionOverflows) {
  InstanceBuilder builder;
  builder.add_ticks(Time(0), Time::max(), Time(2));
  EXPECT_THROW((void)builder.build(), AssertionError);
}

// PreparedInstance::prepare skipped the d + p <= Time::max() check that
// Engine::release applies, so an unvalidated JobTable row with an
// overflowing latest completion reached the engine, whose completion time
// then overflowed (signed overflow; it threw only by accident, with
// "event time went backwards"). prepare now rejects the row with release's
// message.
TEST(PrepareRegression, RejectsRowWhoseLatestCompletionOverflows) {
  JobTable table;
  table.push_back(Time(0), Time::max() - Time(1), Time(5));
  const auto lazy = make_scheduler("lazy");
  PortfolioRunner runner;
  try {
    (void)runner.run_span(table.view(), PortfolioEntry{lazy.get(), false});
    FAIL() << "prepare accepted a row whose latest completion overflows";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "latest completion overflows the time axis"),
              std::string::npos)
        << e.what();
  }
}

// Two near-max lengths overflow any unchecked total-work sum. The stats /
// lower-bound paths used to route through checked_add and threw on exactly
// the adversarial instances they exist to describe; they now saturate.
TEST(StatsRegression, NearMaxLengthsSaturateInsteadOfThrowing) {
  const std::int64_t huge = Time::max().ticks() - 5;
  InstanceBuilder builder;
  builder.add_ticks(Time(0), Time(0), Time(huge));
  builder.add_ticks(Time(0), Time(3), Time(huge - 7));
  const Instance inst = builder.build();

  InstanceStats stats;
  ASSERT_NO_THROW(stats = compute_instance_stats(inst));
  EXPECT_EQ(stats.total_work, Time::max());  // saturated, not wrapped
  EXPECT_EQ(stats.jobs, 2u);

  Time lb;
  ASSERT_NO_THROW(lb = best_lower_bound(inst));
  EXPECT_GE(lb, Time(huge));  // the longest job alone

  const auto eager = make_scheduler("eager");
  const Time span = simulate_span(inst, *eager, /*clairvoyant=*/false);
  EXPECT_LE(lb, span);
}

// Seed-replay pin through the extended fuzz generator: the huge-LENGTH
// variant produces instances whose summed work overflows int64. Before the
// saturating sweep, the ratio-bounds invariants below threw on them.
TEST(StatsRegression, FuzzHugeLengthSeedsExerciseTheSaturatingPath) {
  const FuzzGenConfig config;
  std::size_t overflowing = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Instance inst = generate_fuzz_instance(config, seed);
    Time sum = Time::zero();
    for (const Job& j : inst.view().jobs()) {
      sum = sum.saturating_add(j.length);
    }
    if (sum < Time::max()) {
      continue;  // no overflow on this seed
    }
    ++overflowing;
    InstanceStats stats;
    ASSERT_NO_THROW(stats = compute_instance_stats(inst)) << "seed " << seed;
    EXPECT_EQ(stats.total_work, Time::max()) << "seed " << seed;
    Time lb;
    ASSERT_NO_THROW(lb = best_lower_bound(inst)) << "seed " << seed;
    const auto eager = make_scheduler("eager");
    EXPECT_LE(lb, simulate_span(inst, *eager, /*clairvoyant=*/false))
        << "seed " << seed;
  }
  // The generator's huge-length variant must actually reach this path.
  EXPECT_GT(overflowing, 5u);
}

// Arrivals are not required to be non-negative. The heuristic's window
// scan steps left of a(J) by the longest length, and its candidates step
// left of each nearby endpoint by p(J); both must saturate rather than
// wrap when a job sits next to the most negative representable Time (run
// under UBSan, a raw subtraction here is a signed-overflow report).
TEST(HeuristicRegression, WindowEdgeNearTimeMinSaturates) {
  const Time long_length = Time::from_units(1000.0);
  const Time near_min = Time::min() + Time(1);
  const Instance inst(std::vector<Job>{
      // A short job that fits inside the long one's interval.
      {.arrival = near_min, .deadline = near_min + Time(2), .length = Time(1)},
      // A rigid long job starting one tick later.
      {.arrival = near_min + Time(1),
       .deadline = near_min + Time(1),
       .length = long_length},
      // A long job far to the right.
      {.arrival = Time::zero(),
       .deadline = Time::from_units(5.0),
       .length = long_length},
  });
  HeuristicResult result;
  ASSERT_NO_THROW(result = heuristic_optimal(inst));
  EXPECT_EQ(result.span, long_length + long_length);
  EXPECT_NO_THROW(result.schedule.validate(inst));
  EXPECT_GE(result.schedule.start(0), near_min + Time(1));
}

// A schedule whose span is exactly Time::max() is valid (fuzz instances
// reach it). The heuristic used to keep only spans strictly below its
// Time::max() sentinel, found none, and failed in Schedule::validate.
TEST(HeuristicRegression, SpanOfExactlyTimeMaxKeepsASchedule) {
  const Instance inst(std::vector<Job>{
      {.arrival = Time::zero(), .deadline = Time::zero(),
       .length = Time::max()},
      {.arrival = Time::zero(), .deadline = Time::from_units(3.0),
       .length = Time::from_units(1.0)},
  });
  HeuristicResult result;
  ASSERT_NO_THROW(result = heuristic_optimal(inst));
  EXPECT_EQ(result.span, Time::max());
  EXPECT_NO_THROW(result.schedule.validate(inst));
}

// The trace validator must reject same-tick orders that violate half-open
// semantics, independent of how the engine's queue is compiled — this is
// what catches scripts/mutants/tiebreak.patch.
TEST(TraceCheckRegression, FlagsCompletionAfterArrivalAtSameTick) {
  const Instance inst = make_instance({{0, 0, 1}, {1, 1, 1}});
  Schedule schedule(inst.size());
  schedule.set_start(0, Time::zero());
  schedule.set_start(1, Time::from_units(1.0));

  const Time unit = Time::from_units(1.0);
  Trace good;
  good.record({Time::zero(), EventKind::kArrival, 0, 0});
  good.record({Time::zero(), EventKind::kStart, 0, 0});
  good.record({unit, EventKind::kCompletion, 0, unit.ticks()});
  good.record({unit, EventKind::kArrival, 1, 0});
  good.record({unit, EventKind::kStart, 1, 0});
  good.record({unit + unit, EventKind::kCompletion, 1, unit.ticks()});
  EXPECT_TRUE(check_trace(inst, schedule, good).empty());

  Trace bad;
  bad.record({Time::zero(), EventKind::kArrival, 0, 0});
  bad.record({Time::zero(), EventKind::kStart, 0, 0});
  bad.record({unit, EventKind::kArrival, 1, 0});  // before J0's completion
  bad.record({unit, EventKind::kCompletion, 0, unit.ticks()});
  bad.record({unit, EventKind::kStart, 1, 0});
  bad.record({unit + unit, EventKind::kCompletion, 1, unit.ticks()});
  bool flagged = false;
  for (const auto& v : check_trace(inst, schedule, bad)) {
    flagged |= v.message.find("completion processed after an arrival") !=
               std::string::npos;
  }
  EXPECT_TRUE(flagged);
}

}  // namespace
}  // namespace fjs
