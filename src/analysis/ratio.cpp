#include "analysis/ratio.h"

#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "support/assert.h"

namespace fjs {

RatioBracket measure_ratio(const Instance& instance,
                           OnlineScheduler& scheduler, bool clairvoyant,
                           OptMethod method, ExactOptions exact_options) {
  FJS_REQUIRE(!instance.empty(), "measure_ratio: empty instance");
  RatioBracket bracket;
  bracket.online_span = simulate_span(instance, scheduler, clairvoyant);
  if (method == OptMethod::kExact) {
    const Time opt = exact_optimal_span(instance, exact_options);
    bracket.opt_upper = opt;
    bracket.opt_lower = opt;
  } else {
    bracket.opt_upper = heuristic_span(instance);
    bracket.opt_lower = best_lower_bound(instance);
    FJS_CHECK(bracket.opt_lower <= bracket.opt_upper,
              "measure_ratio: lower bound exceeds heuristic span");
  }
  return bracket;
}

RatioBracket measure_ratio(const Instance& instance,
                           const std::string& scheduler_key, OptMethod method,
                           ExactOptions exact_options) {
  const auto scheduler = make_scheduler(scheduler_key);
  return measure_ratio(instance, *scheduler,
                       scheduler->requires_clairvoyance(), method,
                       exact_options);
}

}  // namespace fjs
