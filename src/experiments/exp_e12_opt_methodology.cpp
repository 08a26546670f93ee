// E12 — measurement-methodology validation (not a paper experiment).
//
// Every competitive ratio in E5–E8 leans on the offline OPT estimators.
// This experiment quantifies their quality on instances small enough for
// the exact solver: optimality gaps of the alignment local search and of
// the best online schedule (the minimum span over the registry schedulers,
// each a feasible offline schedule), tightness of the certified lower
// bound, and exact solver cost. If these gaps drifted, the E5–E8 brackets
// would widen — this is the regression canary. Verdicts assert the
// sandwich LB <= OPT <= {local search, best online} on every instance.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "experiments/experiments_all.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "support/parallel.h"
#include "support/stats.h"
#include "support/string_util.h"
#include "support/thread_pool.h"
#include "workload/suite.h"

namespace fjs::experiments {

namespace {

class E12Experiment final : public Experiment {
 public:
  std::string name() const override { return "e12"; }
  std::string title() const override {
    return "offline estimator methodology";
  }
  std::string description() const override {
    return "Optimality gaps of the heuristic, best online schedule and "
           "certified lower bound against the exact solver on small integral "
           "instances.";
  }
  std::string paper_ref() const override { return "-"; }

  ExperimentResult run(ExperimentContext& ctx) const override {
    ExperimentResult result;
    const std::size_t job_count = ctx.smoke ? 10 : 12;
    const std::uint64_t seeds = ctx.smoke ? 2 : 8;
    ctx.out() << "E12: offline-OPT estimator quality on exact-solvable"
                 " instances\n("
              << job_count << " jobs, integral, 8 workload families x "
              << seeds << " seeds).\n\n";

    struct Case {
      std::string family;
      Instance instance;
    };
    std::vector<Case> cases;
    for (const auto& named : integral_suite(job_count)) {
      for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        cases.push_back(
            Case{named.name, generate_workload(named.config, seed + ctx.seed)});
      }
    }

    struct Row {
      Time opt;
      Time heuristic;
      Time best_online;
      Time lb;
      std::size_t nodes;
    };
    std::vector<Row> rows(cases.size());
    parallel_for(ctx.worker_pool(), cases.size(), [&](std::size_t i) {
      const Instance& inst = cases[i].instance;
      // Every registry scheduler, each in its own model, in one replay.
      std::vector<std::unique_ptr<OnlineScheduler>> schedulers;
      std::vector<PortfolioEntry> entries;
      for (const SchedulerSpec& spec : scheduler_registry()) {
        schedulers.push_back(spec.make());
        entries.push_back({schedulers.back().get(), spec.clairvoyant});
      }
      PortfolioRunner runner;
      std::vector<Time> online;
      runner.run_spans(inst, entries, online);
      const ExactResult exact = exact_optimal(inst);
      rows[i] = Row{.opt = exact.span,
                    .heuristic = heuristic_span(inst),
                    .best_online = *std::min_element(online.begin(),
                                                     online.end()),
                    .lb = best_lower_bound(inst),
                    .nodes = exact.nodes_explored};
    });

    Summary heuristic_gap;
    Summary online_gap;
    Summary lb_gap;
    Summary nodes;
    std::size_t heuristic_exact_hits = 0;
    std::size_t online_exact_hits = 0;
    for (const Row& row : rows) {
      heuristic_gap.add(time_ratio(row.heuristic, row.opt));
      online_gap.add(time_ratio(row.best_online, row.opt));
      lb_gap.add(time_ratio(row.opt, row.lb));
      nodes.add(static_cast<double>(row.nodes));
      heuristic_exact_hits += row.heuristic == row.opt ? 1u : 0u;
      online_exact_hits += row.best_online == row.opt ? 1u : 0u;
    }

    Table table({"estimator", "mean vs OPT", "p95 vs OPT", "worst vs OPT",
                 "optimal hits"});
    table.add_row({"alignment local search",
                   format_double(heuristic_gap.mean(), 4),
                   format_double(heuristic_gap.percentile(95.0), 4),
                   format_double(heuristic_gap.max(), 4),
                   std::to_string(heuristic_exact_hits) + "/" +
                       std::to_string(rows.size())});
    table.add_row({"best online schedule", format_double(online_gap.mean(), 4),
                   format_double(online_gap.percentile(95.0), 4),
                   format_double(online_gap.max(), 4),
                   std::to_string(online_exact_hits) + "/" +
                       std::to_string(rows.size())});
    table.add_row({"OPT / certified LB", format_double(lb_gap.mean(), 4),
                   format_double(lb_gap.percentile(95.0), 4),
                   format_double(lb_gap.max(), 4), "-"});

    result.verdicts.push_back(Verdict::at_least(
        "local search feasible", heuristic_gap.min(), 1.0,
        "no heuristic schedule beats the exact optimum", 1e-9));
    result.verdicts.push_back(Verdict::at_least(
        "online schedules feasible", online_gap.min(), 1.0,
        "no online schedule beats the exact optimum", 1e-9));
    result.verdicts.push_back(Verdict::at_least(
        "lower bound sound", lb_gap.min(), 1.0,
        "certified LB never exceeds the exact optimum", 1e-9));
    emit_table(ctx, result, "E12 offline estimator quality", table,
               "e12_methodology");

    ctx.out() << "exact solver nodes: mean " << format_double(nodes.mean(), 1)
              << ", max " << format_double(nodes.max(), 0) << "\n"
              << "Reading: the local search is near-exact on small"
                 " instances, so E5-E8 ratio brackets are tight;\nthe LB gap"
                 " shows how conservative upper ratio estimates are.\n";
    return result;
  }
};

}  // namespace

std::unique_ptr<Experiment> make_e12_experiment() {
  return std::make_unique<E12Experiment>();
}

}  // namespace fjs::experiments
