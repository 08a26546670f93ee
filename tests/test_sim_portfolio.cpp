// Static replay determinism: the prepared-column path (PortfolioRunner,
// and simulate()/simulate_span() on top of it) must be bit-identical to
// the engine's release path (a StaticSource replay) — same realized
// instance, same schedule, same trace, same span — for every registry
// scheduler, both clairvoyance modes, any thread count, and with buffer
// reuse across instances of different sizes. When the build carries the
// FJS_COUNT_ALLOCS hook, also pins the zero-steady-state-allocation
// guarantee of the span-only path (docs/PERF.md).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/job_table.h"
#include "helpers.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/portfolio.h"
#include "sim/source.h"
#include "support/alloc_counter.h"
#include "support/parallel.h"
#include "support/thread_pool.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::random_integral_instance;

std::vector<Instance> test_instances() {
  std::vector<Instance> instances;
  // Arrival-sorted with a same-tick tie.
  instances.push_back(make_instance(
      {{0, 2, 1}, {0, 3, 2}, {1, 4, 1}, {3, 6, 2}, {7, 9, 1}}));
  // Deliberately NOT arrival-sorted: exercises the reindexing path.
  instances.push_back(make_instance(
      {{5, 8, 2}, {0, 1, 1}, {3, 3, 2}, {1, 6, 1}, {2, 2, 3}, {0, 4, 2}}));
  for (std::uint64_t seed : {11u, 42u, 77u}) {
    instances.push_back(random_integral_instance(seed, 12));
  }
  return instances;
}

/// (scheduler object, clairvoyant flag) pairs covering the whole registry:
/// every spec in its native model, plus every non-clairvoyant scheduler
/// run clairvoyantly (a valid configuration the sweep also uses).
struct NamedEntry {
  std::string key;
  bool clairvoyant;
  std::unique_ptr<OnlineScheduler> scheduler;
};

std::vector<NamedEntry> registry_entries() {
  std::vector<NamedEntry> out;
  for (const auto& spec : scheduler_registry()) {
    out.push_back({spec.key, spec.clairvoyant, make_scheduler(spec.key)});
    if (!spec.clairvoyant) {
      out.push_back({spec.key, true, make_scheduler(spec.key)});
    }
  }
  return out;
}

void expect_same_result(const SimulationResult& classic,
                        const SimulationResult& portfolio,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(classic.instance.size(), portfolio.instance.size());
  for (JobId id = 0; id < classic.instance.size(); ++id) {
    const Job& a = classic.instance.job(id);
    const Job& b = portfolio.instance.job(id);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(classic.schedule.start(id), portfolio.schedule.start(id));
  }
  EXPECT_EQ(classic.realized_span, portfolio.realized_span);
  EXPECT_EQ(classic.event_count, portfolio.event_count);
  ASSERT_EQ(classic.trace.size(), portfolio.trace.size());
  for (std::size_t i = 0; i < classic.trace.size(); ++i) {
    const TraceEntry& a = classic.trace.entry(i);
    const TraceEntry& b = portfolio.trace.entry(i);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.detail, b.detail);
  }
}

/// The engine's release path: a StaticSource replay, the reference the
/// prepared-column path must reproduce bit for bit.
SimulationResult release_path_run(const Instance& instance,
                                  const std::string& key, bool clairvoyant) {
  const auto scheduler = make_scheduler(key);
  StaticSource source(instance);
  NoDeferralOracle oracle;
  Engine engine(source, oracle, *scheduler,
                EngineOptions{.clairvoyant = clairvoyant,
                              .record_trace = true});
  return engine.run();
}

TEST(Portfolio, FullModeBitIdenticalToReleasePath) {
  PortfolioRunner runner;
  for (const Instance& instance : test_instances()) {
    for (const NamedEntry& named : registry_entries()) {
      const std::string label =
          named.key + (named.clairvoyant ? "/cv" : "/ncv");
      const SimulationResult reference =
          release_path_run(instance, named.key, named.clairvoyant);
      expect_same_result(
          reference,
          runner.run_full(instance.view(),
                          PortfolioEntry{named.scheduler.get(),
                                         named.clairvoyant},
                          /*record_trace=*/true),
          label + " run_full");
      expect_same_result(reference,
                         simulate(instance, *named.scheduler,
                                  named.clairvoyant, /*record_trace=*/true),
                         label + " simulate");
    }
  }
}

TEST(Portfolio, SpanModeMatchesReleasePath) {
  PortfolioRunner runner;
  std::vector<Time> spans;
  for (const Instance& instance : test_instances()) {
    auto named = registry_entries();
    std::vector<PortfolioEntry> entries;
    for (const auto& n : named) {
      entries.push_back(PortfolioEntry{n.scheduler.get(), n.clairvoyant});
    }
    runner.run_spans(instance, entries, spans);
    ASSERT_EQ(spans.size(), named.size());
    for (std::size_t i = 0; i < named.size(); ++i) {
      SCOPED_TRACE(named[i].key);
      const auto scheduler = make_scheduler(named[i].key);
      StaticSource source(instance);
      NoDeferralOracle oracle;
      Engine engine(source, oracle, *scheduler,
                    EngineOptions{.clairvoyant = named[i].clairvoyant});
      const Time reference = engine.run_span();
      EXPECT_EQ(spans[i], reference);
      EXPECT_EQ(simulate_span(instance, *scheduler, named[i].clairvoyant),
                reference);
    }
  }
}

TEST(Portfolio, RunSpanStartsMapBackToInstanceIds) {
  // Unsorted arrivals: engine job ids differ from the instance's own ids,
  // so this pins the original_ids() mapping.
  const Instance instance = make_instance(
      {{5, 8, 2}, {0, 1, 1}, {3, 3, 2}, {1, 6, 1}, {2, 2, 3}, {0, 4, 2}});
  const auto scheduler = make_scheduler("batch+");
  PortfolioRunner runner;
  std::vector<Time> starts;
  const Time span = runner.run_span(
      instance, PortfolioEntry{scheduler.get(), true}, &starts);

  const auto classic_scheduler = make_scheduler("batch+");
  const SimulationResult classic =
      simulate(instance, *classic_scheduler, /*clairvoyant=*/true);
  EXPECT_EQ(span, classic.realized_span);
  // simulate() reindexes jobs into arrival order; starts[] is indexed by
  // the instance's ORIGINAL ids, so compare through the arrival sort.
  const std::vector<JobId> by_arrival = instance.ids_by_arrival();
  ASSERT_EQ(starts.size(), instance.size());
  for (JobId engine_id = 0; engine_id < instance.size(); ++engine_id) {
    EXPECT_EQ(starts[by_arrival[engine_id]],
              classic.schedule.start(engine_id));
  }
  // The recovered starts form a valid schedule with the reported span.
  const Schedule schedule = Schedule::from_starts(starts);
  schedule.validate(instance);
  EXPECT_EQ(schedule.span(instance), span);
}

TEST(Portfolio, RunnerReuseAcrossInstanceSizesIsDeterministic) {
  // One runner cycling instances of very different sizes: buffer reuse
  // must never leak state between runs.
  PortfolioRunner runner;
  const auto scheduler = make_scheduler("profit");
  const std::vector<PortfolioEntry> entries = {
      PortfolioEntry{scheduler.get(), true}};
  const auto instances = test_instances();
  std::vector<Time> first;
  for (const Instance& instance : instances) {
    std::vector<Time> spans;
    runner.run_spans(instance, entries, spans);
    first.push_back(spans[0]);
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = instances.size(); i-- > 0;) {  // reversed order
      std::vector<Time> spans;
      runner.run_spans(instances[i], entries, spans);
      EXPECT_EQ(spans[0], first[i]) << "instance " << i << " pass " << pass;
    }
  }
}

TEST(Portfolio, ParallelGridMatchesSerialAcrossThreadCounts) {
  // The sweep usage pattern: thread-local runners fanned over a case list.
  // The span grid must be identical for 1 and 4 threads and for the
  // serial loop -- the portfolio leg of the jobs=1-vs-N determinism the
  // experiment runner guarantees.
  std::vector<Instance> cases;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    cases.push_back(random_integral_instance(100 + seed, 9));
  }
  const std::vector<std::string> keys = {"eager", "batch+", "profit"};
  auto compute = [&](std::size_t threads) {
    std::vector<Time> grid(cases.size() * keys.size());
    auto run_case = [&](std::size_t c) {
      thread_local PortfolioRunner runner;
      std::vector<std::unique_ptr<OnlineScheduler>> schedulers;
      std::vector<PortfolioEntry> entries;
      for (const auto& key : keys) {
        schedulers.push_back(make_scheduler(key));
        entries.push_back(PortfolioEntry{
            schedulers.back().get(),
            schedulers.back()->requires_clairvoyance()});
      }
      std::vector<Time> spans;
      runner.run_spans(cases[c], entries, spans);
      std::copy(spans.begin(), spans.end(),
                grid.begin() + static_cast<std::ptrdiff_t>(c * keys.size()));
    };
    if (threads == 0) {
      for (std::size_t c = 0; c < cases.size(); ++c) {
        run_case(c);
      }
    } else {
      ThreadPool pool(threads);
      parallel_for(pool, cases.size(), run_case);
    }
    return grid;
  };
  const auto serial = compute(0);
  EXPECT_EQ(serial, compute(1));
  EXPECT_EQ(serial, compute(4));
}

// --- Allocation regression assertions (FJS_COUNT_ALLOCS builds) -------
//
// The counters are thread-local and the runs below are single-threaded
// and deterministic, so the measured deltas are exact, not statistical.

TEST(PortfolioAllocs, SpanModeSteadyStateIsAllocationFree) {
  if (!alloc_counting_enabled()) {
    GTEST_SKIP() << "build with -DFJS_COUNT_ALLOCS=ON to measure";
  }
  const Instance instance = random_integral_instance(3, 40, 60, 6, 5);
  const auto batch_plus = make_scheduler("batch+");
  const auto profit = make_scheduler("profit");
  const std::vector<PortfolioEntry> entries = {
      PortfolioEntry{batch_plus.get(), true},
      PortfolioEntry{profit.get(), true},
  };
  PortfolioRunner runner;
  std::vector<Time> spans;
  runner.run_spans(instance, entries, spans);  // warm the workspace
  runner.run_spans(instance, entries, spans);
  const AllocCounts before = alloc_counts();
  for (int i = 0; i < 20; ++i) {
    runner.run_spans(instance, entries, spans);
  }
  const AllocCounts after = alloc_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "span-only portfolio steady state must not touch the heap";
}

TEST(PortfolioAllocs, MinerMutationLoopIsAllocationFree) {
  if (!alloc_counting_enabled()) {
    GTEST_SKIP() << "build with -DFJS_COUNT_ALLOCS=ON to measure";
  }
  // The miner's hot loop: a scratch JobTable alternates between a parent
  // and a single-job mutation of it (patch in place, replay, undo), and
  // every candidate is replayed from t=0 through the view path with start
  // capture. Re-lowering, the replay and the start remap must all reuse
  // warm capacity.
  const Instance base = random_integral_instance(3, 40, 60, 6, 5);
  JobTable table{base.view()};
  const auto victim = static_cast<JobId>(table.size() / 2);
  const Job job = table.job(victim);
  const auto batch_plus = make_scheduler("batch+");
  const PortfolioEntry entry{batch_plus.get(),
                             batch_plus->requires_clairvoyance()};
  PortfolioRunner runner;
  std::vector<Time> starts;
  const auto run_candidate = [&](int i) {
    if (i % 2 == 0) {
      return runner.run_span(table.view(), entry, &starts);
    }
    const JobTable::Undo undo = table.undo_record(victim);
    table.set(victim, job.arrival, job.deadline + Time(Time::kTicksPerUnit),
              job.length);
    const Time span = runner.run_span(table.view(), entry, &starts);
    table.restore(undo);
    return span;
  };
  for (int warm = 0; warm < 4; ++warm) {
    run_candidate(warm);
  }
  const AllocCounts before = alloc_counts();
  for (int i = 0; i < 20; ++i) {
    run_candidate(i);
  }
  const AllocCounts after = alloc_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "miner mutate-replay steady state must not touch the heap";
  EXPECT_EQ(starts.size(), base.size());
}

TEST(PortfolioAllocs, SimulateSpanNeverAllocatesATrace) {
  if (!alloc_counting_enabled()) {
    GTEST_SKIP() << "build with -DFJS_COUNT_ALLOCS=ON to measure";
  }
  // simulate_span runs on the calling thread's PortfolioRunner: once it is
  // warm at the larger size, a call allocates nothing at all. A Trace
  // sneaking back into the span path, or any per-run staging, would show
  // up here as a nonzero count.
  const Instance small = random_integral_instance(21, 30, 40, 5, 4);
  const Instance large = random_integral_instance(22, 600, 900, 5, 4);
  const auto scheduler = make_scheduler("batch+");
  auto measure = [&](const Instance& inst) {
    const AllocCounts before = alloc_counts();
    (void)simulate_span(inst, *scheduler, /*clairvoyant=*/true);
    return alloc_counts().allocations - before.allocations;
  };
  (void)measure(large);  // warm the thread's runner at the larger size
  (void)measure(small);
  EXPECT_EQ(measure(small), 0u) << "warm simulate_span allocated";
  EXPECT_EQ(measure(large), 0u) << "warm simulate_span allocated";

  // And the full-result path: recording a trace must be the ONLY extra
  // allocation cost of record_trace=true.
  auto measure_full = [&](bool record_trace) {
    const auto fresh = make_scheduler("batch+");
    const AllocCounts before = alloc_counts();
    const SimulationResult result =
        simulate(large, *fresh, /*clairvoyant=*/true, record_trace);
    const std::size_t allocs = alloc_counts().allocations - before.allocations;
    return std::make_pair(allocs, result.trace.size());
  };
  (void)measure_full(false);
  (void)measure_full(true);
  const auto [without_trace, no_entries] = measure_full(false);
  const auto [with_trace, entries_recorded] = measure_full(true);
  EXPECT_EQ(no_entries, 0u);
  EXPECT_GT(entries_recorded, 0u);
  EXPECT_LT(without_trace, with_trace)
      << "record_trace=false must skip the trace storage entirely";
}

}  // namespace
}  // namespace fjs
