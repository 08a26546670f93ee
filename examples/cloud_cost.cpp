// Cloud-billing scenario from the paper's introduction: under
// pay-as-you-go pricing, a single large server's bill is proportional to
// the time at least one job is running — exactly the span. This example
// synthesizes a two-day cloud trace and compares every scheduler's
// server-hours and dollar cost.
//
//   $ ./cloud_cost [jobs] [seed]
#include <cstdlib>
#include <iostream>

#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "support/string_util.h"
#include "support/table.h"
#include "workload/cloud_trace.h"

int main(int argc, char** argv) {
  using namespace fjs;

  CloudTraceConfig config;
  config.job_count = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1]))
                              : 400;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 2024;
  const CloudTrace trace = generate_cloud_trace(config, seed);

  constexpr double kDollarsPerHour = 3.06;  // on-demand large instance

  std::cout << "Synthetic cloud trace: " << trace.instance.size()
            << " jobs over ~" << config.hours << "h (seed " << seed << ")\n"
            << "Billing model: $" << kDollarsPerHour
            << "/server-hour; one server bills whenever any job runs.\n\n";

  const Time opt_upper = heuristic_span(trace.instance);
  const Time opt_lower = best_lower_bound(trace.instance);

  Table table({"scheduler", "server-hours", "cost ($)", "vs offline",
               "avg start delay (h)"});
  for (const auto& spec : schedulers_for_model(true)) {
    const auto scheduler = spec.make();
    const SimulationResult result =
        simulate(trace.instance, *scheduler, /*clairvoyant=*/true);
    const double hours = result.span().to_units();
    const double delay =
        result.schedule.total_delay(result.instance).to_units() /
        static_cast<double>(result.instance.size());
    table.add_row({scheduler->name(), format_double(hours, 2),
                   format_double(hours * kDollarsPerHour, 2),
                   format_double(time_ratio(result.span(), opt_upper), 3) +
                       "x",
                   format_double(delay, 2)});
  }
  table.add_row({"offline heuristic", format_double(opt_upper.to_units(), 2),
                 format_double(opt_upper.to_units() * kDollarsPerHour, 2),
                 "1x", "-"});
  std::cout << table.render() << '\n';
  std::cout << "certified OPT lower bound: "
            << format_double(opt_lower.to_units(), 2) << " server-hours\n";
  return 0;
}
