// E11 — extension: busy-time scheduling on capacity-g machines.
//
// The paper's concluding remarks connect Clairvoyant FJS to busy-time
// scheduling (Koehler & Khuller): a machine runs at most g concurrent
// jobs, and g = ∞ IS the span objective. Busy time on capacity-g machines
// is MinUsageTime DBP with unit-size items and bin capacity g, so E11
// runs on the same dbp/ packers as E8. Each scheduler is simulated once
// (a schedule does not depend on g) and packed at every g; the g = ∞ row
// packs at capacity n, the job count, which never refuses a job. We sweep
// g and the packing policy. Verdicts pin the two boundary identities — at
// g=1 busy time equals total work, at g=∞ it equals the schedule's span —
// and soundness of the usage lower bound at every g.
#include <string>
#include <vector>

#include "dbp/simulator.h"
#include "experiments/experiments_all.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "support/string_util.h"
#include "workload/generator.h"

namespace fjs::experiments {

namespace {

class E11Experiment final : public Experiment {
 public:
  std::string name() const override { return "e11"; }
  std::string title() const override {
    return "busy-time vs machine capacity";
  }
  std::string description() const override {
    return "Busy-time objective on capacity-g machines across schedulers "
           "and assignment policies; g=1 is total work, g=inf is span.";
  }
  std::string paper_ref() const override { return "§6 remarks"; }

  ExperimentResult run(ExperimentContext& ctx) const override {
    ExperimentResult result;
    WorkloadConfig cfg;
    cfg.job_count = ctx.smoke ? 120 : 300;
    cfg.arrival_rate = 3.0;
    cfg.laxity_max = 6.0;
    const Instance raw = generate_workload(cfg, 33 + ctx.seed);
    const std::vector<double> unit_sizes(raw.size(), 1.0);

    ctx.out() << "E11: busy-time on capacity-g machines (integer slots,"
                 " first-available assignment\nunless noted). Workload: "
              << cfg.job_count
              << " jobs, Poisson arrivals, uniform lengths 1-4, laxity"
                 " 0-6.\n\n";

    struct ScheduledRun {
      std::string key;
      std::string name;
      SimulationResult run;
    };
    std::vector<ScheduledRun> runs;
    for (const char* key : {"eager", "lazy", "batch+", "profit"}) {
      const auto scheduler = make_scheduler(key);
      runs.push_back(ScheduledRun{
          key, scheduler->name(),
          simulate(raw, *scheduler, scheduler->requires_clairvoyance())});
    }

    // 0 stands for g = ∞: capacity n, one slot per job.
    Table table(
        {"g", "scheduler", "busy time", "machines", "peak", "busy vs LB"});
    const std::vector<std::size_t> capacities =
        ctx.smoke ? std::vector<std::size_t>{1, 4, 16, 0}
                  : std::vector<std::size_t>{1, 2, 4, 8, 16, 0};
    for (const std::size_t g : capacities) {
      const double capacity = static_cast<double>(g == 0 ? raw.size() : g);
      const std::string g_label = g == 0 ? "inf" : std::to_string(g);
      const Time lb = dbp_usage_lower_bound(raw, unit_sizes, capacity);
      for (const auto& [key, scheduler_name, run] : runs) {
        FirstFitPacker packer;
        const DbpResult busy = run_packing(run.instance, run.schedule,
                                           unit_sizes, packer, capacity);
        table.add_row({g_label, scheduler_name,
                       format_double(busy.total_usage.to_units(), 1),
                       std::to_string(busy.bins_opened),
                       std::to_string(busy.peak_open_bins),
                       format_double(time_ratio(busy.total_usage, lb), 3) +
                           "x"});
        result.verdicts.push_back(Verdict::at_least(
            "busy >= LB g=" + g_label + " " + key,
            time_ratio(busy.total_usage, lb), 1.0,
            "busy-time lower bound is sound", 1e-9));
        if (g == 1) {
          result.verdicts.push_back(Verdict::equals(
              "g=1 busy == total work " + key,
              time_ratio(busy.total_usage, raw.total_work()), 1.0, 1e-9,
              "at unit capacity every job-hour is billed alone"));
        }
        if (g == 0) {
          result.verdicts.push_back(Verdict::equals(
              "g=inf busy == span " + key,
              time_ratio(busy.total_usage, run.span()), 1.0, 1e-9,
              "with unbounded sharing busy time degenerates to the span"
              " objective"));
        }
      }
    }
    emit_table(ctx, result, "E11 busy-time vs machine capacity g", table,
               "e11_busytime");

    // Packing-policy ablation at g = 4 for the batch+ schedule (log only).
    const SimulationResult& batch_plus = runs[2].run;  // "batch+"
    FirstFitPacker first_fit;
    BestFitPacker best_fit;
    WorstFitPacker worst_fit;
    Table policies({"policy", "busy time", "machines"});
    for (Packer* packer :
         std::vector<Packer*>{&first_fit, &best_fit, &worst_fit}) {
      const DbpResult busy = run_packing(batch_plus.instance,
                                         batch_plus.schedule, unit_sizes,
                                         *packer, 4.0);
      policies.add_row({packer->name(),
                        format_double(busy.total_usage.to_units(), 1),
                        std::to_string(busy.bins_opened)});
    }
    ctx.out() << "--- assignment-policy ablation (batch+ schedule, g=4) ---\n"
              << policies.render() << '\n';

    ctx.out() << "Reading: at g=1 busy time is total work"
                 " (scheduler-independent); at g=inf it is the span.\n"
                 "In between, span-minimizing schedulers concentrate load so"
                 " fewer machine-hours are billed;\nleast-loaded (balancing)"
                 " assignment wastes busy time relative to packing"
                 " policies.\n";
    return result;
  }
};

}  // namespace

std::unique_ptr<Experiment> make_e11_experiment() {
  return std::make_unique<E11Experiment>();
}

}  // namespace fjs::experiments
