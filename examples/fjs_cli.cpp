// fjs_cli — run any registered scheduler on a workload or an instance file
// and inspect the result (metrics, ratio bracket, ASCII Gantt chart).
//
//   fjs_cli --scheduler batch+ --workload bimodal --jobs 40 --seed 7 --gantt
//   fjs_cli --scheduler profit:k=2 --file my_instance.txt --stats
//   fjs_cli --scheduler cdb --workload heavy-tail --svg timeline.svg
//   fjs_cli --list
//
// Instance file format (units): first line N, then N lines "a d p".
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "analysis/gantt.h"
#include "analysis/instance_stats.h"
#include "analysis/svg.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "support/string_util.h"
#include "workload/suite.h"

namespace {

using namespace fjs;

int usage() {
  std::cerr
      << "usage: fjs_cli [--scheduler KEY] [--workload NAME | --file PATH]\n"
         "               [--jobs N] [--seed S] [--gantt] [--stats]\n"
         "               [--svg PATH] [--save-schedule PATH] [--list]\n";
  return 2;
}

std::optional<WorkloadConfig> find_workload(const std::string& name) {
  for (const auto& named : standard_suite()) {
    if (named.name == name) {
      return named.config;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheduler_key = "batch+";
  std::string workload = "uniform-hi-lax";
  std::string file;
  std::size_t jobs = 30;
  std::uint64_t seed = 1;
  bool gantt = false;
  bool stats = false;
  std::string svg_path;
  std::string save_schedule_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--scheduler") {
      scheduler_key = next();
    } else if (arg == "--workload") {
      workload = next();
    } else if (arg == "--file") {
      file = next();
    } else if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--svg") {
      svg_path = next();
    } else if (arg == "--save-schedule") {
      save_schedule_path = next();
    } else if (arg == "--list") {
      std::cout << "schedulers:";
      for (const auto& key : known_scheduler_keys()) {
        std::cout << ' ' << key;
      }
      std::cout << "\nworkloads:";
      for (const auto& named : standard_suite()) {
        std::cout << ' ' << named.name;
      }
      std::cout << '\n';
      return 0;
    } else {
      return usage();
    }
  }

  Instance instance;
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open " << file << '\n';
      return 1;
    }
    instance = Instance::parse(in);
  } else {
    const auto config = find_workload(workload);
    if (!config.has_value()) {
      std::cerr << "unknown workload '" << workload << "' (see --list)\n";
      return 1;
    }
    WorkloadConfig cfg = *config;
    cfg.job_count = jobs;
    instance = generate_workload(cfg, seed);
  }

  const auto scheduler = make_scheduler(scheduler_key);
  const SimulationResult result =
      simulate(instance, *scheduler, scheduler->requires_clairvoyance());
  const ScheduleMetrics metrics =
      compute_metrics(result.instance, result.schedule);

  std::cout << scheduler->name() << " on " << result.instance.size()
            << " jobs (mu=" << format_double(result.instance.mu(), 3)
            << ")\n"
            << "  span             " << metrics.span.to_string() << '\n'
            << "  makespan end     " << metrics.makespan_end.to_string()
            << '\n'
            << "  max concurrency  " << metrics.max_concurrency << '\n'
            << "  total delay      " << metrics.total_delay.to_string()
            << '\n'
            << "  span / work      "
            << format_double(metrics.span_over_work, 3) << '\n';

  // The bracket online/heuristic <= ratio <= online/lower_bound: the
  // heuristic span is a feasible offline schedule, the lower bound is
  // certified.
  const Time opt_upper = heuristic_span(instance);
  const Time opt_lower = best_lower_bound(instance);
  std::cout << "  ratio bracket    ["
            << format_double(time_ratio(result.span(), opt_upper), 3) << ", "
            << format_double(time_ratio(result.span(), opt_lower), 3)
            << "]  (vs heuristic OPT " << opt_upper.to_string()
            << ", certified LB " << opt_lower.to_string() << ")\n";

  if (stats) {
    std::cout << '\n'
              << compute_instance_stats(result.instance).to_string() << '\n'
              << guarantee_table(result.instance);
  }
  if (gantt) {
    std::cout << '\n'
              << render_gantt(result.instance, result.schedule);
  }
  if (!svg_path.empty()) {
    if (write_svg_timeline(result.instance, result.schedule, svg_path)) {
      std::cout << "wrote " << svg_path << '\n';
    } else {
      std::cerr << "failed to write " << svg_path << '\n';
      return 1;
    }
  }
  if (!save_schedule_path.empty()) {
    std::ofstream out(save_schedule_path);
    if (!out) {
      std::cerr << "failed to write " << save_schedule_path << '\n';
      return 1;
    }
    result.schedule.write(out);
    std::cout << "wrote " << save_schedule_path << '\n';
  }
  return 0;
}
