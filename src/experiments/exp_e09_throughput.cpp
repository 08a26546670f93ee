// E9 — engineering throughput benchmarks (google-benchmark).
//
// Not a paper experiment: measures the simulator's and solvers' raw
// performance so regressions in the substrate are visible — events/second
// per scheduler, IntervalSet operations, exact-solver scaling, heuristic
// cost, and parallel sweep speedup. The benchmarks are registered
// dynamically so the smoke profile can run the fast regression subset
// (the one scripts/reproduce.sh diffs against BENCH_e9.json) with a short
// min-time. Results go to <out_dir>/benchmarks.json in google-benchmark's
// JSON format — scripts/bench_compare.py consumes it unchanged.
//
// Timing numbers are only meaningful when E9 runs alone on an idle
// machine (`fjs_experiments --only e9`); its verdicts check completion,
// not speed — the perf gate lives in scripts/bench_compare.py.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "adversary/instance_miner.h"
#include "analysis/sweep.h"
#include "core/interval_set.h"
#include "experiments/experiments_all.h"
#include "offline/annealing.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "support/alloc_counter.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"
#include "workload/generator.h"

namespace fjs::experiments {

namespace {

Instance bench_instance(std::size_t jobs, std::uint64_t seed) {
  WorkloadConfig config;
  config.job_count = jobs;
  config.arrival_rate = 2.0;
  config.laxity_max = 6.0;
  return generate_workload(config, seed);
}

void engine_throughput(benchmark::State& state, const std::string& key) {
  const Instance inst = bench_instance(10'000, 1);
  const auto spec_clairvoyant = [&] {
    for (const auto& spec : scheduler_registry()) {
      if (spec.key == key) {
        return spec.clairvoyant;
      }
    }
    return false;
  }();
  std::size_t events = 0;
  for (auto _ : state) {
    const auto scheduler = make_scheduler(key);
    const SimulationResult result =
        simulate(inst, *scheduler, spec_clairvoyant);
    events += result.event_count;
    benchmark::DoNotOptimize(result.schedule);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("events/iteration");
}

// Lengths are chosen so the union keeps thousands of components at
// n=10000 (~60% domain coverage): both construction paths then exercise
// their real costs. Much longer intervals collapse the union to a single
// component, reducing n× add() to a degenerate O(1) merge-into-back that
// benchmarks nothing.
std::vector<Interval> random_intervals(std::size_t n) {
  Rng rng(7);
  std::vector<Interval> intervals;
  intervals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t lo = rng.uniform_int(0, 1'000'000);
    intervals.emplace_back(Time(lo), Time(lo + rng.uniform_int(1, 200)));
  }
  return intervals;
}

// Bulk sort-then-merge construction — the path hot callers (active_set,
// sweeps) use. The per-iteration vector copy is part of the measured cost;
// the constructor takes its input by value.
void interval_set_add(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Interval> intervals = random_intervals(n);
  for (auto _ : state) {
    IntervalSet set(intervals);
    benchmark::DoNotOptimize(set.measure());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// Legacy n× add() path, kept for comparison against the bulk build.
void interval_set_add_incremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Interval> intervals = random_intervals(n);
  for (auto _ : state) {
    IntervalSet set;
    for (const auto& iv : intervals) {
      set.add(iv);
    }
    benchmark::DoNotOptimize(set.measure());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

Instance solver_instance(std::size_t jobs) {
  WorkloadConfig config;
  config.job_count = jobs;
  config.integral = true;
  config.laxity_max = 4.0;
  return generate_workload(config, 3);
}

// Branch-and-bound solver: the extended args (12, 14) were out of reach
// for the grid DFS, which is benchmarked separately at its feasible sizes.
void exact_solver(benchmark::State& state) {
  const Instance inst =
      solver_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_optimal_span(inst));
  }
}

// Legacy grid DFS on the same instances — the "before" curve.
void exact_solver_reference(benchmark::State& state) {
  const Instance inst =
      solver_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_optimal_span_reference(inst));
  }
}

// Miner throughput at fixed search effort (identical candidate sequences
// in both variants — the objective values, and therefore the
// hill-climbing path, are the same). items/s counts candidate evaluations.
MinerOptions miner_bench_options() {
  MinerOptions options;
  options.population = 32;
  options.rounds = 12;
  options.mutations_per_round = 16;
  options.jobs = 10;  // large enough that certification dominates mining
  options.seed = 17;
  return options;
}

void miner(benchmark::State& state) {
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const MinerResult result = mine_worst_case("batch", miner_bench_options());
    evaluations += result.evaluations;
    benchmark::DoNotOptimize(result.worst_ratio);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.SetLabel("candidate evaluations");
}

// The pre-PR-2 mining stack at the same search effort: no objective memo
// and grid-DFS certification.
void miner_legacy(benchmark::State& state) {
  MinerOptions options = miner_bench_options();
  options.use_objective_memo = false;
  const bool clairvoyant = make_scheduler("batch")->requires_clairvoyance();
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const MinerResult result = mine_instance(
        [clairvoyant](const Instance& instance) {
          const auto scheduler = make_scheduler("batch");
          const Time span = simulate_span(instance, *scheduler, clairvoyant);
          return time_ratio(span, exact_optimal_span_reference(instance));
        },
        options);
    evaluations += result.evaluations;
    benchmark::DoNotOptimize(result.worst_ratio);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.SetLabel("candidate evaluations");
}

// Columnar lowering in isolation: one warm PreparedInstance re-lowering
// the same 1000-job view every iteration — the per-candidate fixed cost
// of every shared-timeline replay (arrival sort fast path + column build,
// zero steady-state allocations).
void prepare_view(benchmark::State& state) {
  const Instance inst = bench_instance(1'000, 11);
  const InstanceView view = inst.view();
  PreparedInstance prepared;
  prepared.prepare(view);  // warm the internal buffers
  std::size_t lowered = 0;
  for (auto _ : state) {
    prepared.prepare(view);
    benchmark::DoNotOptimize(prepared.arrivals().data());
    benchmark::DoNotOptimize(prepared.deadlines().data());
    benchmark::DoNotOptimize(prepared.lengths().data());
    benchmark::ClobberMemory();
    lowered += prepared.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lowered));
  state.SetLabel("jobs lowered/iteration");
}

// Pins the release-path access contract (docs/DATA_MODEL.md): the
// unchecked InstanceView column reads the solver/engine hot loops use vs
// the checked Instance::job() row lookup. The two curves document why the
// hot loops hoist a view.
void view_access(benchmark::State& state, bool checked) {
  const Instance inst = bench_instance(10'000, 21);
  const InstanceView view = inst.view();
  std::int64_t acc = 0;
  for (auto _ : state) {
    if (checked) {
      for (JobId id = 0; id < inst.size(); ++id) {
        const Job j = inst.job(id);
        acc += j.arrival.ticks() + j.deadline.ticks() + j.length.ticks();
      }
    } else {
      for (JobId id = 0; id < view.size(); ++id) {
        acc += view.arrival(id).ticks() + view.deadline(id).ticks() +
               view.length(id).ticks();
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inst.size()));
  state.SetLabel("column reads");
}

// Annealing proposal throughput on a 2048-job instance: each proposal
// moves one interval in the sorted list and re-measures the union in one
// O(n) pass (undone on rejection).
Instance anneal_instance(std::size_t n) {
  Rng rng(5);
  const std::int64_t unit = Time::kTicksPerUnit;
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Time arrival(
        unit * rng.uniform_int(0, 2 * static_cast<std::int64_t>(n)));
    const Time length(unit * rng.uniform_int(1, 8));
    const Time deadline = arrival + Time(unit * rng.uniform_int(0, 12));
    jobs.push_back(Job{static_cast<JobId>(jobs.size()), arrival,
                       std::max(deadline, arrival), length});
  }
  return Instance(std::move(jobs));
}

void anneal(benchmark::State& state) {
  const Instance inst = anneal_instance(2'048);
  AnnealingOptions options;
  options.iterations = 20'000;
  std::size_t proposals = 0;
  for (auto _ : state) {
    const AnnealingResult result = anneal_schedule(inst, options);
    proposals += options.iterations;
    benchmark::DoNotOptimize(result.span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(proposals));
  state.SetLabel("proposals");
}

// BM_ViewStats: the full derived-stat recompute an InstanceView pays on
// every fresh read (min/max lengths, arrival/completion window, saturating
// total work, both id orderings) over a 4096-job view.
void view_stats(benchmark::State& state) {
  const Instance inst = bench_instance(4'096, 17);
  const InstanceView view = inst.view();
  std::vector<JobId> order;
  view.ids_by_arrival(order);  // warm the buffer outside the loop
  std::int64_t acc = 0;
  for (auto _ : state) {
    acc += view.min_length().ticks() + view.max_length().ticks();
    acc += view.earliest_arrival().ticks();
    acc += view.latest_completion().ticks();
    bool overflowed = false;
    acc += view.total_work_saturating(&overflowed).ticks();
    view.ids_by_arrival(order);
    acc += order.front();
    view.ids_by_deadline(order);
    acc += order.back();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inst.size()));
}

// BM_LowerBoundBatch: the mandatory-work interval union and the
// max-length bound over a 4096-job view. chain_lower_bound has its own
// cost profile (the serial Pareto-front DP, docs/PERF.md) and is left out.
void lower_bound_batch(benchmark::State& state) {
  const Instance inst = bench_instance(4'096, 19);
  const InstanceView view = inst.view();
  std::int64_t acc = 0;
  for (auto _ : state) {
    acc += mandatory_lower_bound(view).ticks();
    acc += max_length_lower_bound(view).ticks();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inst.size()));
}

void heuristic(benchmark::State& state) {
  const Instance inst =
      bench_instance(static_cast<std::size_t>(state.range(0)), 5);
  HeuristicOptions options;
  options.restarts = 1;
  options.max_passes = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic_span(inst, options));
  }
}

// Span-only portfolio replay: one warm PortfolioRunner cycling a mid-size
// instance through the smoke scheduler pair. The allocs_per_sim counter is
// the steady-state heap-allocation rate measured through the
// FJS_COUNT_ALLOCS operator-new hook — 0 is the design target (see
// docs/PERF.md); the counter is omitted when the hook is compiled out so
// bench_compare.py's --allocs gate never compares apples to zeros.
void portfolio_span(benchmark::State& state) {
  const Instance inst = bench_instance(1'000, 11);
  const auto batch_plus = make_scheduler("batch+");
  const auto profit = make_scheduler("profit");
  const std::vector<PortfolioEntry> entries = {
      PortfolioEntry{batch_plus.get(), batch_plus->requires_clairvoyance()},
      PortfolioEntry{profit.get(), profit->requires_clairvoyance()},
  };
  PortfolioRunner runner;
  std::vector<Time> spans;
  runner.run_spans(inst, entries, spans);  // reach the warm steady state
  std::size_t sims = 0;
  const AllocCounts before = alloc_counts();
  for (auto _ : state) {
    runner.run_spans(inst, entries, spans);
    sims += entries.size();
    benchmark::DoNotOptimize(spans.data());
  }
  const AllocCounts after = alloc_counts();
  state.SetItemsProcessed(static_cast<std::int64_t>(sims));
  if (alloc_counting_enabled()) {
    state.counters["allocs_per_sim"] =
        benchmark::Counter(static_cast<double>(after.allocations -
                                               before.allocations) /
                           static_cast<double>(sims > 0 ? sims : 1));
    state.SetLabel("spans/iteration; alloc hook ON");
  } else {
    state.SetLabel("spans/iteration; alloc hook OFF (-DFJS_COUNT_ALLOCS=ON)");
  }
}

// Per-bump cost of the telemetry hot path: one relaxed fetch_add on a
// thread-owned cell when compiled in, a no-op under -DFJS_TELEMETRY=OFF.
// reproduce.sh runs the E9 smoke subset against both builds and warns if
// the engine benchmarks drift by more than the 1% overhead budget; this
// curve isolates the primitive itself.
void telemetry_counter(benchmark::State& state) {
  static telemetry::Counter counter{"bench.telemetry_counter",
                                    telemetry::Stability::kTiming};
  counter.add(0);  // pay the per-thread warm-up alloc outside the loop
  std::uint64_t bumps = 0;
  for (auto _ : state) {
    counter.increment();
    benchmark::DoNotOptimize(++bumps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bumps));
  state.SetLabel(telemetry::enabled() ? "telemetry ON" : "telemetry OFF");
}

void sweep_parallelism(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  WorkloadConfig config;
  config.job_count = 120;
  const auto cases = make_cases(config, "bench", 16, 9);
  ThreadPool pool(threads);
  SweepOptions options;
  options.pool = &pool;
  options.heuristic_options.restarts = 0;
  options.heuristic_options.max_passes = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_ratio_sweep(cases, {"batch+", "profit"}, options));
  }
  state.SetLabel(std::to_string(threads) + " threads");
}

// Registers either the fast regression subset (smoke: the benchmarks
// reproduce.sh gates against BENCH_e9.json, short min-time) or the full
// battery with google-benchmark's defaults. Names match the former
// BENCHMARK()/BENCHMARK_CAPTURE() spellings so BENCH_e9.json baselines
// keep comparing.
void register_benchmarks(bool smoke) {
  const double smoke_min_time = 0.05;
  const auto engine_keys =
      smoke ? std::vector<std::string>{"eager", "batch"}
            : std::vector<std::string>{"eager",  "lazy",   "batch", "batch+",
                                       "cdb",    "profit", "doubler*"};
  for (const std::string& key : engine_keys) {
    // BENCHMARK_CAPTURE named "batch_plus"/"doubler" for the awkward keys.
    std::string suffix = key == "batch+" ? "batch_plus" : key;
    if (suffix == "doubler*") {
      suffix = "doubler";
    }
    auto* b = benchmark::RegisterBenchmark(
        ("BM_EngineThroughput/" + suffix).c_str(),
        [key](benchmark::State& state) { engine_throughput(state, key); });
    if (smoke) {
      b->MinTime(smoke_min_time);
    }
  }

  {
    auto* b = benchmark::RegisterBenchmark("BM_IntervalSetAdd",
                                           interval_set_add);
    if (smoke) {
      b->Arg(10'000)->MinTime(smoke_min_time);
    } else {
      b->Arg(100)->Arg(1'000)->Arg(10'000);
    }
  }
  {
    // In both profiles: the smoke run is what reproduce.sh's allocs gate
    // reads, the full run feeds the BENCH_e9.json baseline.
    auto* b = benchmark::RegisterBenchmark("BM_PortfolioSpan",
                                           portfolio_span);
    if (smoke) {
      b->MinTime(smoke_min_time);
    }
  }
  {
    // In both profiles: reproduce.sh's telemetry-overhead gate reads the
    // smoke run from the default and the -DFJS_TELEMETRY=OFF builds.
    auto* b = benchmark::RegisterBenchmark("BM_TelemetryCounter",
                                           telemetry_counter);
    if (smoke) {
      b->MinTime(smoke_min_time);
    }
  }
  {
    // In both profiles: the BENCH_e9.json smoke baseline reads these two.
    auto* stats = benchmark::RegisterBenchmark("BM_ViewStats", view_stats);
    stats->Unit(benchmark::kMicrosecond);
    auto* bounds =
        benchmark::RegisterBenchmark("BM_LowerBoundBatch", lower_bound_batch);
    bounds->Unit(benchmark::kMicrosecond);
    if (smoke) {
      stats->MinTime(smoke_min_time);
      bounds->MinTime(smoke_min_time);
    }
  }
  if (!smoke) {
    benchmark::RegisterBenchmark("BM_IntervalSetAddIncremental",
                                 interval_set_add_incremental)
        ->Arg(100)->Arg(1'000)->Arg(10'000);
    benchmark::RegisterBenchmark("BM_ExactSolver", exact_solver)
        ->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12)->Arg(14)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("BM_ExactSolverReference",
                                 exact_solver_reference)
        ->Arg(4)->Arg(6)->Arg(8)->Arg(10)
        ->Unit(benchmark::kMicrosecond);
    // Miner/anneal curves run whole search loops per iteration, so single
    // runs are the noisiest rows in the battery: pin 3 repetitions and
    // report only the aggregates (bench_compare.py gates on the median).
    benchmark::RegisterBenchmark("BM_Miner", miner)
        ->Unit(benchmark::kMillisecond)
        ->Repetitions(3)->ReportAggregatesOnly(true);
    benchmark::RegisterBenchmark("BM_MinerLegacy", miner_legacy)
        ->Unit(benchmark::kMillisecond)
        ->Repetitions(3)->ReportAggregatesOnly(true);
    benchmark::RegisterBenchmark("BM_PrepareView", prepare_view)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        "BM_ViewAccess/unchecked",
        [](benchmark::State& state) { view_access(state, false); });
    benchmark::RegisterBenchmark(
        "BM_ViewAccess/checked",
        [](benchmark::State& state) { view_access(state, true); });
    benchmark::RegisterBenchmark("BM_Anneal", anneal)
        ->Unit(benchmark::kMillisecond)
        ->Repetitions(3)->ReportAggregatesOnly(true);
    benchmark::RegisterBenchmark("BM_Heuristic", heuristic)
        ->Arg(50)->Arg(150)->Arg(400)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_SweepParallelism", sweep_parallelism)
        ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
        ->Unit(benchmark::kMillisecond)->UseRealTime();
  }
}

class E9Experiment final : public Experiment {
 public:
  std::string name() const override { return "e9"; }
  std::string title() const override {
    return "engineering throughput benchmarks";
  }
  std::string description() const override {
    return "google-benchmark battery over the engine, IntervalSet, exact "
           "solver, miner, heuristic and sweeps; JSON for bench_compare.py.";
  }
  std::string paper_ref() const override { return "-"; }

  ExperimentResult run(ExperimentContext& ctx) const override {
    ExperimentResult result;
    ctx.out() << "E9: substrate throughput benchmarks ("
              << (ctx.smoke ? "smoke subset, min_time=0.05s"
                            : "full battery")
              << ").\nJSON results: benchmarks.json (google-benchmark"
                 " format; gate with scripts/bench_compare.py).\n\n";

    benchmark::ClearRegisteredBenchmarks();
    register_benchmarks(ctx.smoke);

    // Route the JSON file through benchmark's own --benchmark_out flag:
    // 1.7.x std::exit(1)s on a custom file reporter without it, and with
    // it the library opens the file and owns the reporter lifecycle.
    std::string arg0 = "fjs_experiments";
    std::string out_flag = "--benchmark_out=" + ctx.out_dir +
                           "/benchmarks.json";
    std::string format_flag = "--benchmark_out_format=json";
    std::vector<char*> bench_argv = {arg0.data(), out_flag.data(),
                                     format_flag.data()};
    // Developer escape hatch: FJS_BENCH_FILTER=BM_Miner re-runs a single
    // benchmark family without paying for the whole battery (the JSON it
    // writes is partial — never commit it as a baseline).
    std::string filter_flag;
    if (const char* filter = std::getenv("FJS_BENCH_FILTER")) {
      filter_flag = std::string("--benchmark_filter=") + filter;
      bench_argv.push_back(filter_flag.data());
    }
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());

    benchmark::ConsoleReporter display;
    display.SetOutputStream(&ctx.out());
    display.SetErrorStream(&ctx.out());
    const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&display);
    benchmark::ClearRegisteredBenchmarks();

    result.artifacts.push_back("benchmarks.json");
    const bool filtered = std::getenv("FJS_BENCH_FILTER") != nullptr;
    result.verdicts.push_back(Verdict::at_least(
        "benchmarks executed", static_cast<double>(ran),
        filtered ? 1.0 : (ctx.smoke ? 3.0 : 10.0),
        "every registered benchmark family ran to completion"));
    return result;
  }
};

}  // namespace

std::unique_ptr<Experiment> make_e9_experiment() {
  return std::make_unique<E9Experiment>();
}

}  // namespace fjs::experiments
