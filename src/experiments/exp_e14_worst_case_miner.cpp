// E14 — automated worst-case search (complements the hand-built E1–E4
// constructions).
//
// The miner hill-climbs over small integral instances maximizing each
// scheduler's EXACT competitive ratio. Expected shape: mined ratios stay
// strictly below every proven upper bound (soundness), approach μ+1 for
// Batch+ (its bound is tight), and exceed the clairvoyant lower bound φ
// for every scheduler the paper proves cannot beat it. Verdicts replace
// the old "!!! BOUND VIOLATION" print: each bounded scheduler's mined
// ratio is at most its theorem bound, and every ratio is >= 1 (the miner
// certifies against exact OPT).
#include <string>
#include <vector>

#include "adversary/instance_miner.h"
#include "experiments/experiments_all.h"
#include "schedulers/classify_by_duration.h"
#include "schedulers/profit.h"
#include "support/parallel.h"
#include "support/string_util.h"
#include "support/thread_pool.h"

namespace fjs::experiments {

namespace {

class E14Experiment final : public Experiment {
 public:
  std::string name() const override { return "e14"; }
  std::string title() const override { return "worst-case instance miner"; }
  std::string description() const override {
    return "Hill-climbing miner maximizing exact competitive ratios per "
           "scheduler; mined ratios vs proven theorem bounds.";
  }
  std::string paper_ref() const override { return "Thms 3.4 / 4.4 / 4.11"; }

  ExperimentResult run(ExperimentContext& ctx) const override {
    ExperimentResult result;
    const std::size_t jobs = ctx.smoke ? 8 : 10;
    ctx.out() << "E14: worst-case instance mining (" << jobs
              << " jobs, unit grid, exact-certified ratios).\n\n";

    struct Target {
      const char* key;
      double bound;  // proven upper bound for mu <= 5 instances (p in 1..5)
      const char* bound_label;
    };
    // Instance shape: lengths 1..5 => mu <= 5.
    const double mu_cap = 5.0;
    const double alpha = CdbScheduler::optimal_alpha();
    const double k = ProfitScheduler::optimal_k();
    const std::vector<Target> targets = {
        {"eager", 0.0, "unbounded"},
        {"lazy", 0.0, "unbounded"},
        {"batch", 2.0 * mu_cap + 1.0, "2mu+1 = 11"},
        {"batch+", mu_cap + 1.0, "mu+1 = 6 (tight)"},
        {"cdb", 3.0 * alpha + 4.0 + 2.0 / (alpha - 1.0), "7+2sqrt6 = 11.9"},
        {"profit", 2.0 * k + 2.0 + 1.0 / (k - 1.0), "4+2sqrt2 = 6.83"},
        {"doubler*", 0.0, "(reconstruction)"},
        {"overlap", 0.0, "(heuristic)"},
    };

    // One serial mine per scheduler; the mines run concurrently.
    std::vector<MinerResult> results(targets.size());
    parallel_for(ctx.worker_pool(), targets.size(), [&](std::size_t i) {
      MinerOptions options;
      options.population = ctx.smoke ? 48 : 512;
      options.rounds = ctx.smoke ? 8 : 160;
      options.mutations_per_round = ctx.smoke ? 16 : 64;
      options.jobs = jobs;
      options.seed = 0xBADF00DULL + i + ctx.seed;
      results[i] = mine_worst_case(targets[i].key, options);
    });

    Table table({"scheduler", "mined worst ratio", "proven bound",
                 "evaluations", "memo hits"});
    for (std::size_t i = 0; i < targets.size(); ++i) {
      table.add_row({targets[i].key, format_double(results[i].worst_ratio, 4),
                     targets[i].bound_label,
                     std::to_string(results[i].evaluations),
                     std::to_string(results[i].memo_hits)});
      result.verdicts.push_back(Verdict::at_least(
          "mined ratio certified " + std::string(targets[i].key),
          results[i].worst_ratio, 1.0,
          "online/exact-OPT cannot drop below 1", 1e-9));
      if (targets[i].bound > 0.0) {
        result.verdicts.push_back(Verdict::at_most(
            "bound respected " + std::string(targets[i].key),
            results[i].worst_ratio, targets[i].bound,
            std::string("mined worst case stays below the proven bound ") +
                targets[i].bound_label,
            1e-6));
        if (results[i].worst_ratio > targets[i].bound + 1e-6) {
          ctx.out() << "!!! BOUND VIOLATION for " << targets[i].key << ":\n"
                    << results[i].worst_instance.to_string();
        }
      }
    }
    emit_table(ctx, result, "E14 mined worst cases vs proven bounds", table,
               "e14_miner");

    ctx.out() << "Worst instance mined for batch+ (ratio "
              << format_double(results[3].worst_ratio, 4) << "):\n"
              << results[3].worst_instance.to_string()
              << "\nReading: no mined ratio crosses its theorem's bound;"
                 " eager/lazy ratios keep growing\nwith search effort"
                 " (unbounded), and batch+'s mined ratio pushes toward"
                 " mu+1,\nits tight guarantee.\n";
    return result;
  }
};

}  // namespace

std::unique_ptr<Experiment> make_e14_experiment() {
  return std::make_unique<E14Experiment>();
}

}  // namespace fjs::experiments
