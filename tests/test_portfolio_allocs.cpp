// Zero-allocation assertions for the span-only replay kernels. This
// executable links alloc_counter.cpp, whose global operator new/delete
// count every heap allocation per thread; the counters are thread-local
// and the runs below are single-threaded and deterministic, so the
// measured deltas are exact, not statistical (docs/PERF.md).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "core/job_table.h"
#include "helpers.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/portfolio.h"

namespace fjs {
namespace {

using testing::random_integral_instance;

TEST(PortfolioAllocs, SpanModeSteadyStateIsAllocationFree) {
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
  // The miner's hot loop: a scratch JobTable alternates between a parent
  // and a single-job mutation of it (patch in place, replay, undo), and
  // every candidate is replayed from t=0 through the view path.
  // Re-lowering and the replay must both reuse warm capacity.
  const Instance base = random_integral_instance(3, 40, 60, 6, 5);
  JobTable table{base.view()};
  const auto victim = static_cast<JobId>(table.size() / 2);
  const Job job = table.job(victim);
  const auto batch_plus = make_scheduler("batch+");
  const PortfolioEntry entry{batch_plus.get(),
                             batch_plus->requires_clairvoyance()};
  PortfolioRunner runner;
  const auto run_candidate = [&](int i) {
    if (i % 2 == 0) {
      return runner.run_span(table.view(), entry);
    }
    const JobTable::Undo undo = table.undo_record(victim);
    table.set(victim, job.arrival, job.deadline + Time(Time::kTicksPerUnit),
              job.length);
    const Time span = runner.run_span(table.view(), entry);
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
}

TEST(PortfolioAllocs, SimulateSpanNeverAllocatesATrace) {
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
