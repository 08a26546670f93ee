// E7 — scheduler comparison on the standard stochastic workload suite.
//
// The paper has no experimental section; this experiment provides the
// empirical ranking its theory predicts: Batch+/Batch close to OPT with
// generous laxity, Eager/Lazy losing ground, CDB/Profit trading
// average-case performance for worst-case guarantees. Ratios are reported
// as a bracket [online/heuristic, online/lower-bound] that contains the
// true competitive ratio on each instance. Two verdicts per (workload,
// scheduler) cell: "bracket ordered" (mean online/lower-bound >= mean
// online/heuristic) and "sound upper ratio" (mean online/lower-bound >= 1).
// The lower side has no verdict: an online schedule can beat the
// heuristic's span, so a mean online/heuristic below 1 is no error.
#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "experiments/experiments_all.h"
#include "schedulers/registry.h"
#include "support/string_util.h"
#include "workload/suite.h"

namespace fjs::experiments {

namespace {

class E7Experiment final : public Experiment {
 public:
  std::string name() const override { return "e7"; }
  std::string title() const override {
    return "scheduler comparison on stochastic workloads";
  }
  std::string description() const override {
    return "Workload-suite x scheduler grid with bracketed competitive "
           "ratios (vs heuristic OPT and certified lower bound).";
  }
  std::string paper_ref() const override { return "-"; }

  ExperimentResult run(ExperimentContext& ctx) const override {
    ExperimentResult result;
    const std::size_t job_count = ctx.smoke ? 60 : 150;
    const std::size_t replicas = ctx.smoke ? 2 : 6;
    ctx.out() << "E7: scheduler x workload grid (8 workload families x "
              << replicas << " seeds, n=" << job_count
              << " jobs).\nRatio bracket: [vs heuristic OPT, vs certified"
                 " lower bound].\n\n";

    SweepOptions options;
    options.heuristic_options.restarts = ctx.smoke ? 0 : 1;
    options.heuristic_options.max_passes = ctx.smoke ? 4 : 8;
    options.pool = &ctx.worker_pool();

    Table table({"workload", "scheduler", "mean ratio >=", "mean ratio <=",
                 "worst >=", "mean span"});
    for (const auto& named : standard_suite()) {
      WorkloadConfig config = named.config;
      config.job_count = job_count;
      const auto cases =
          make_cases(config, named.name, replicas, 42 + ctx.seed);
      const auto aggregates =
          run_ratio_sweep(cases, known_scheduler_keys(), options);
      for (const auto& agg : aggregates) {
        table.add_row({named.name, agg.scheduler_key,
                       format_double(agg.ratio_lower.mean(), 3),
                       format_double(agg.ratio_upper.mean(), 3),
                       format_double(agg.ratio_lower.max(), 3),
                       format_double(agg.spans.mean(), 1)});
        result.verdicts.push_back(Verdict::at_least(
            "bracket ordered " + named.name + " " + agg.scheduler_key,
            agg.ratio_upper.mean() - agg.ratio_lower.mean(), 0.0,
            "online/LB >= online/heuristic-OPT", 1e-9));
        result.verdicts.push_back(Verdict::at_least(
            "sound upper ratio " + named.name + " " + agg.scheduler_key,
            agg.ratio_upper.mean(), 1.0,
            "online span >= certified lower bound on OPT", 1e-9));
      }
    }
    emit_table(ctx, result, "E7 scheduler comparison on stochastic workloads",
               table, "e7_random");
    return result;
  }
};

}  // namespace

std::unique_ptr<Experiment> make_e7_experiment() {
  return std::make_unique<E7Experiment>();
}

}  // namespace fjs::experiments
