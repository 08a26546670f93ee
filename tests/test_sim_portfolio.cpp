// Static replay determinism: the prepared-column path (PortfolioRunner,
// and simulate()/simulate_span() on top of it) must be bit-identical to
// the engine's release path (a StaticSource replay) — same realized
// instance, same schedule, same trace, same span — for every registry
// scheduler, both clairvoyance modes, any thread count, and with buffer
// reuse across instances of different sizes. The zero-steady-state-
// allocation guarantee of the span-only path is pinned separately, by
// test_portfolio_allocs (it links a counting operator new).
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

}  // namespace
}  // namespace fjs
