// E9 — engineering throughput benchmarks (google-benchmark).
//
// Not a paper experiment: one benchmark family per layer that the
// end-to-end time is made of — instance preparation, engine events/s,
// lower bounds, exact-solver cost, miner candidates/s, thread-pool
// scaling of a sweep and the offline heuristic. The benchmarks are
// registered dynamically so the smoke profile can run a fast subset with
// a short min-time. Results go to <out_dir>/benchmarks.json in
// google-benchmark's JSON format.
//
// Timing numbers are only meaningful when E9 runs alone on an idle
// machine (`fjs_experiments --only e9`); its verdicts check completion,
// not speed. Compare two revisions on one host with
// scripts/ab_compare.py, which reads every benchmarks.json row.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "adversary/instance_miner.h"
#include "analysis/sweep.h"
#include "experiments/experiments_all.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
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

Instance solver_instance(std::size_t jobs) {
  WorkloadConfig config;
  config.job_count = jobs;
  config.integral = true;
  config.laxity_max = 4.0;
  return generate_workload(config, 3);
}

// Branch-and-bound solver scaling over integral instances of 4–14 jobs.
void exact_solver(benchmark::State& state) {
  const Instance inst =
      solver_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_optimal_span(inst));
  }
}

// Miner throughput at fixed search effort (one serial mine_worst_case per
// iteration). items/s counts candidate evaluations.
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

// Registers either the smoke subset (engine throughput for two schedulers,
// the lower bounds and preparation, short min-time) or all seven families
// with google-benchmark's defaults.
void register_benchmarks(bool smoke) {
  const double smoke_min_time = 0.05;
  const auto engine_keys =
      smoke ? std::vector<std::string>{"eager", "batch"}
            : std::vector<std::string>{"eager",  "lazy",   "batch", "batch+",
                                       "cdb",    "profit", "doubler*"};
  for (const std::string& key : engine_keys) {
    // Benchmark names spell out the keys with "+" and "*".
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
  auto* bounds =
      benchmark::RegisterBenchmark("BM_LowerBoundBatch", lower_bound_batch);
  auto* prepare = benchmark::RegisterBenchmark("BM_PrepareView", prepare_view);
  bounds->Unit(benchmark::kMicrosecond);
  prepare->Unit(benchmark::kMicrosecond);
  if (smoke) {
    bounds->MinTime(smoke_min_time);
    prepare->MinTime(smoke_min_time);
    return;
  }
  benchmark::RegisterBenchmark("BM_ExactSolver", exact_solver)
      ->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12)->Arg(14)
      ->Unit(benchmark::kMicrosecond);
  // A miner iteration runs a whole search loop, the noisiest row in the
  // battery: pin 3 repetitions and report only the aggregates.
  benchmark::RegisterBenchmark("BM_Miner", miner)
      ->Unit(benchmark::kMillisecond)
      ->Repetitions(3)->ReportAggregatesOnly(true);
  benchmark::RegisterBenchmark("BM_Heuristic", heuristic)
      ->Arg(50)->Arg(150)->Arg(400)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_SweepParallelism", sweep_parallelism)
      ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
      ->Unit(benchmark::kMillisecond)->UseRealTime();
}

class E9Experiment final : public Experiment {
 public:
  std::string name() const override { return "e9"; }
  std::string title() const override {
    return "engineering throughput benchmarks";
  }
  std::string description() const override {
    return "google-benchmark battery, one family per layer: preparation, "
           "engine, lower bounds, exact solver, miner, sweep pool scaling "
           "and heuristic.";
  }
  std::string paper_ref() const override { return "-"; }

  ExperimentResult run(ExperimentContext& ctx) const override {
    ExperimentResult result;
    ctx.out() << "E9: substrate throughput benchmarks ("
              << (ctx.smoke ? "smoke subset, min_time=0.05s"
                            : "full battery")
              << ").\nJSON results: benchmarks.json (google-benchmark"
                 " format; compare revisions with scripts/ab_compare.py)."
                 "\n\n";

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
        filtered ? 1.0 : (ctx.smoke ? 4.0 : 10.0),
        "every registered benchmark family ran to completion"));
    return result;
  }
};

}  // namespace

std::unique_ptr<Experiment> make_e9_experiment() {
  return std::make_unique<E9Experiment>();
}

}  // namespace fjs::experiments
