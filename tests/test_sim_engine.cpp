#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "adversary/nonclairvoyant_lb.h"
#include "helpers.h"
#include "schedulers/batch.h"
#include "schedulers/eager.h"
#include "schedulers/lazy.h"
#include "support/assert.h"
#include "support/telemetry.h"
#include "workload/generator.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::units;

/// Scheduler that never starts anything — must trip the engine's
/// deadline-enforcement check.
class RefusingScheduler final : public OnlineScheduler {
 public:
  std::string name() const override { return "refusing"; }
  void on_arrival(SchedulerContext&, JobId) override {}
  void on_deadline(SchedulerContext&, JobId) override {}
};

/// Scheduler that illegally peeks at lengths.
class PeekingScheduler final : public OnlineScheduler {
 public:
  std::string name() const override { return "peeking"; }
  void on_arrival(SchedulerContext& ctx, JobId id) override {
    (void)ctx.length_of(id);  // must throw in non-clairvoyant mode
    ctx.start_job(id);
  }
  void on_deadline(SchedulerContext& ctx, JobId id) override {
    ctx.start_job(id);
  }
};

/// Starts each job `delay` after arrival using a timer (exercises
/// set_timer / on_timer).
class TimerScheduler final : public OnlineScheduler {
 public:
  explicit TimerScheduler(Time delay) : delay_(delay) {}
  std::string name() const override { return "timer"; }
  void on_arrival(SchedulerContext& ctx, JobId id) override {
    ctx.set_timer(ctx.now() + delay_, id);
  }
  void on_deadline(SchedulerContext& ctx, JobId id) override {
    ctx.start_job(id);
  }
  void on_timer(SchedulerContext& ctx, std::uint64_t tag) override {
    const auto id = static_cast<JobId>(tag);
    for (const JobId p : ctx.pending()) {
      if (p == id) {
        ctx.start_job(id);
        return;
      }
    }
  }

 private:
  Time delay_;
};

TEST(Engine, EagerStartsAtArrival) {
  const Instance inst = make_instance({{0, 5, 2}, {1, 7, 3}});
  EagerScheduler eager;
  const SimulationResult result = simulate(inst, eager, false);
  EXPECT_EQ(result.schedule.start(0), units(0.0));
  EXPECT_EQ(result.schedule.start(1), units(1.0));
  EXPECT_EQ(result.span(), units(4.0));
}

TEST(Engine, LazyStartsAtDeadline) {
  const Instance inst = make_instance({{0, 5, 2}, {1, 7, 3}});
  LazyScheduler lazy;
  const SimulationResult result = simulate(inst, lazy, false);
  EXPECT_EQ(result.schedule.start(0), units(5.0));
  EXPECT_EQ(result.schedule.start(1), units(7.0));
}

TEST(Engine, RefusingSchedulerTripsDeadlineEnforcement) {
  const Instance inst = make_instance({{0, 1, 1}});
  RefusingScheduler refusing;
  EXPECT_THROW(simulate(inst, refusing, false), AssertionError);
}

TEST(Engine, NonClairvoyantLengthAccessThrows) {
  const Instance inst = make_instance({{0, 1, 1}});
  PeekingScheduler peeking;
  EXPECT_THROW(simulate(inst, peeking, false), AssertionError);
}

TEST(Engine, ClairvoyantLengthAccessAllowed) {
  const Instance inst = make_instance({{0, 1, 1}});
  PeekingScheduler peeking;
  const SimulationResult result = simulate(inst, peeking, true);
  EXPECT_EQ(result.schedule.start(0), units(0.0));
}

TEST(Engine, ClairvoyanceRequirementEnforced) {
  // A scheduler declaring requires_clairvoyance must not run without it.
  class NeedsLengths final : public OnlineScheduler {
   public:
    std::string name() const override { return "needs-lengths"; }
    bool requires_clairvoyance() const override { return true; }
    void on_arrival(SchedulerContext& ctx, JobId id) override {
      ctx.start_job(id);
    }
    void on_deadline(SchedulerContext& ctx, JobId id) override {
      ctx.start_job(id);
    }
  };
  const Instance inst = make_instance({{0, 1, 1}});
  NeedsLengths sched;
  EXPECT_THROW(simulate(inst, sched, false), AssertionError);
  EXPECT_NO_THROW(simulate(inst, sched, true));
}

TEST(Engine, TimerSchedulerDelaysStarts) {
  const Instance inst = make_instance({{0, 5, 1}});
  TimerScheduler sched(units(2.0));
  const SimulationResult result = simulate(inst, sched, false);
  EXPECT_EQ(result.schedule.start(0), units(2.0));
}

TEST(Engine, ZeroLaxityJobStartsAtArrivalViaDeadline) {
  const Instance inst = make_instance({{3, 3, 1}});
  LazyScheduler lazy;
  const SimulationResult result = simulate(inst, lazy, false);
  EXPECT_EQ(result.schedule.start(0), units(3.0));
}

TEST(Engine, TraceRecordsLifecycle) {
  const Instance inst = make_instance({{0, 0, 1}});
  EagerScheduler eager;
  const SimulationResult result = simulate(inst, eager, false, true);
  const auto arrivals = result.trace.filter(EventKind::kArrival);
  const auto starts = result.trace.filter(EventKind::kStart);
  const auto completions = result.trace.filter(EventKind::kCompletion);
  ASSERT_EQ(arrivals.size(), 1u);
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(arrivals[0].time, units(0.0));
  EXPECT_EQ(completions[0].time, units(1.0));
  EXPECT_EQ(completions[0].detail, units(1.0).ticks());
}

TEST(Engine, TraceOffByDefault) {
  const Instance inst = make_instance({{0, 0, 1}});
  EagerScheduler eager;
  const SimulationResult result = simulate(inst, eager, false);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_GT(result.event_count, 0u);
}

TEST(Engine, RealizedInstanceInArrivalOrder) {
  const Instance inst = make_instance({{5, 6, 1}, {0, 1, 1}});
  EagerScheduler eager;
  const SimulationResult result = simulate(inst, eager, false);
  // StaticSource releases by arrival: realized job 0 is the 0-arrival one.
  EXPECT_EQ(result.instance.job(0).arrival, units(0.0));
  EXPECT_EQ(result.instance.job(1).arrival, units(5.0));
}

TEST(Engine, EmptyInstanceRuns) {
  const Instance inst;
  EagerScheduler eager;
  const SimulationResult result = simulate(inst, eager, false);
  EXPECT_EQ(result.schedule.size(), 0u);
}

TEST(Engine, SameTickCompletionBeforeArrival) {
  // Job 0 runs [0,1). Job 1 arrives exactly at 1. With trace recording,
  // the completion entry must precede the arrival entry.
  const Instance inst = make_instance({{0, 0, 1}, {1, 2, 1}});
  EagerScheduler eager;
  const SimulationResult result = simulate(inst, eager, false, true);
  std::size_t completion_pos = 0;
  std::size_t arrival1_pos = 0;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const TraceEntry& e = result.trace.entry(i);
    if (e.kind == EventKind::kCompletion && e.job == 0) {
      completion_pos = i;
    }
    if (e.kind == EventKind::kArrival && e.job == 1) {
      arrival1_pos = i;
    }
  }
  EXPECT_LT(completion_pos, arrival1_pos);
}

TEST(Engine, RunTwiceRejected) {
  const Instance inst = make_instance({{0, 1, 1}});
  StaticSource source(inst);
  NoDeferralOracle oracle;
  EagerScheduler eager;
  Engine engine(source, oracle, eager, {});
  (void)engine.run();
  EXPECT_THROW(engine.run(), AssertionError);
}

TEST(Engine, MaxEventsGuard) {
  const Instance inst = make_instance({{0, 1, 1}});
  StaticSource source(inst);
  NoDeferralOracle oracle;
  EagerScheduler eager;
  Engine engine(source, oracle, eager, EngineOptions{.max_events = 1});
  EXPECT_THROW(engine.run(), AssertionError);
}

TEST(Engine, AdaptiveSourceInjectsOnCompletion) {
  // A source that releases a second job the moment the first completes.
  class ChainSource final : public JobSource {
   public:
    SourceAction begin() override {
      SourceAction a;
      a.releases.push_back(JobSpec{.arrival = Time::zero(),
                                   .deadline = Time::zero(),
                                   .length = units(1.0)});
      return a;
    }
    SourceAction on_complete(JobId id, Time now) override {
      if (id != 0) {
        return {};
      }
      SourceAction a;
      a.releases.push_back(
          JobSpec{.arrival = now, .deadline = now, .length = units(2.0)});
      return a;
    }
  };
  ChainSource source;
  NoDeferralOracle oracle;
  EagerScheduler eager;
  Engine engine(source, oracle, eager, {});
  const SimulationResult result = engine.run();
  ASSERT_EQ(result.instance.size(), 2u);
  EXPECT_EQ(result.schedule.start(1), units(1.0));
  EXPECT_EQ(result.span(), units(3.0));
}

TEST(Engine, DeferredLengthDecision) {
  // Oracle defers the decision by 0.5 and then reports length 2.
  class DeferOracle final : public LengthOracle {
   public:
    StartDecision at_start(JobId, Time start) override {
      return StartDecision{.length = std::nullopt,
                           .decide_at = start + units(0.5)};
    }
    Time decide(JobId, Time) override { return units(2.0); }
  };
  class OneJobSource final : public JobSource {
   public:
    SourceAction begin() override {
      SourceAction a;
      a.releases.push_back(JobSpec{.arrival = Time::zero(),
                                   .deadline = Time::zero(),
                                   .length = std::nullopt});
      return a;
    }
  };
  OneJobSource source;
  DeferOracle oracle;
  EagerScheduler eager;
  Engine engine(source, oracle, eager, {});
  const SimulationResult result = engine.run();
  EXPECT_EQ(result.instance.job(0).length, units(2.0));
  EXPECT_EQ(result.span(), units(2.0));
}

TEST(Engine, ClairvoyantRunRequiresLengthsAtRelease) {
  class LengthlessSource final : public JobSource {
   public:
    SourceAction begin() override {
      SourceAction a;
      a.releases.push_back(JobSpec{.arrival = Time::zero(),
                                   .deadline = Time::zero(),
                                   .length = std::nullopt});
      return a;
    }
  };
  LengthlessSource source;
  NoDeferralOracle oracle;
  EagerScheduler eager;
  Engine engine(source, oracle, eager, EngineOptions{.clairvoyant = true});
  EXPECT_THROW(engine.run(), AssertionError);
}

Instance sim_workload(std::size_t jobs, double rate, std::uint64_t seed) {
  WorkloadConfig config;
  config.job_count = jobs;
  config.arrival_rate = rate;
  return generate_workload(config, seed);
}

TEST(Engine, RealizedSpanMatchesScheduleSpan) {
  const Instance inst = sim_workload(60, 3.0, 31);
  EagerScheduler eager;
  const SimulationResult result = simulate(inst, eager, false);
  EXPECT_EQ(result.span(), result.schedule.span(result.instance));
}

TEST(Engine, SimulateSpanMatchesFullSimulation) {
  // The fast path must agree with the full result on realistic workloads
  // (eager exercises immediate starts, lazy exercises deadline starts).
  for (const std::uint64_t seed : {1ULL, 7ULL, 19ULL}) {
    const Instance inst = sim_workload(80, 2.5, seed);
    EagerScheduler eager;
    LazyScheduler lazy;
    EXPECT_EQ(simulate_span(inst, eager, false),
              simulate(inst, eager, false).span());
    EXPECT_EQ(simulate_span(inst, lazy, false),
              simulate(inst, lazy, false).span());
  }
}

TEST(Engine, RepeatedSimulationsAreIdentical) {
  // simulate() recycles a thread-local workspace; reuse must not leak any
  // state between runs.
  const Instance inst = sim_workload(50, 2.0, 5);
  EagerScheduler eager;
  const SimulationResult first = simulate(inst, eager, false);
  for (int i = 0; i < 3; ++i) {
    const SimulationResult again = simulate(inst, eager, false);
    EXPECT_EQ(again.event_count, first.event_count);
    EXPECT_EQ(again.span(), first.span());
    ASSERT_EQ(again.schedule.size(), first.schedule.size());
    for (JobId id = 0; id < first.schedule.size(); ++id) {
      EXPECT_EQ(again.schedule.start(id), first.schedule.start(id));
    }
  }
}

TEST(Engine, WorkspaceReuseAcrossDifferentInstances) {
  // Interleave runs of different sizes through the same thread-local
  // workspace; each must match a fresh computation.
  EagerScheduler eager;
  const Instance small = sim_workload(5, 1.0, 2);
  const Instance large = sim_workload(120, 2.0, 3);
  const Time small_span = simulate(small, eager, false).span();
  const Time large_span = simulate(large, eager, false).span();
  EXPECT_EQ(simulate(large, eager, false).span(), large_span);
  EXPECT_EQ(simulate(small, eager, false).span(), small_span);
  EXPECT_EQ(simulate_span(small, eager, false), small_span);
  EXPECT_EQ(simulate_span(large, eager, false), large_span);
}

TEST(EngineTelemetry, CountersEqualRunFields) {
  // engine.events and engine.runs are added once per drive from the
  // engine's own event count; bracket one static replay and one adaptive
  // adversary run and check the totals against the results.
  const Instance inst = sim_workload(50, 2.0, 5);
  EagerScheduler eager;
  NonClairvoyantLbParams params;
  params.mu = 4.0;
  params.iterations = 3;
  params.counts = {256, 16, 4};
  params.alpha = 6.0;
  NonClairvoyantAdversary adversary(params);
  BatchScheduler batch;

  const telemetry::Snapshot before = telemetry::capture();
  const SimulationResult replay = simulate(inst, eager, false);
  Engine engine(adversary, adversary, batch,
                EngineOptions{.clairvoyant = false});
  const SimulationResult adaptive = engine.run();
  const telemetry::Snapshot diff =
      telemetry::delta(before, telemetry::capture());
  const auto counter = [&diff](const std::string& name) {
    for (const telemetry::CounterValue& value : diff.counters) {
      if (value.name == name) return value.value;
    }
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  EXPECT_GT(replay.event_count, 0u);
  EXPECT_GT(adaptive.event_count, 0u);
  EXPECT_EQ(counter("engine.events"),
            replay.event_count + adaptive.event_count);
  EXPECT_EQ(counter("engine.runs"), 2u);
}

}  // namespace
}  // namespace fjs
