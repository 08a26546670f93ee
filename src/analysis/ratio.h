// Ratio harness: measure a scheduler's span against the offline optimum.
//
// On instances small enough for the exact solver the ratio is exact.
// Otherwise we report a bracket
//   online/heuristic  <=  true ratio  <=  online/lower_bound,
// whose left end is conservative (the heuristic span upper-bounds OPT).
#pragma once

#include <string>

#include "core/instance.h"
#include "offline/exact.h"
#include "sim/scheduler.h"

namespace fjs {

struct RatioBracket {
  Time online_span;
  /// Span of a feasible offline schedule (exact optimum, heuristic, or a
  /// construction-provided reference) — an upper bound on OPT.
  Time opt_upper;
  /// Certified lower bound on OPT (equals opt_upper when exact).
  Time opt_lower;

  /// Conservative estimate: the scheduler's ratio is at least this.
  double ratio_lower() const { return time_ratio(online_span, opt_upper); }
  /// The scheduler's ratio is at most this.
  double ratio_upper() const { return time_ratio(online_span, opt_lower); }
  bool exact() const { return opt_upper == opt_lower; }
};

enum class OptMethod {
  kExact,    ///< exact B&B — requires a small integral instance
  kBracket,  ///< heuristic upper bound + certified lower bound
};

/// Runs the scheduler on the instance and compares with OPT. The bracket's
/// OPT upper bound is the alignment heuristic's span; its lower bound is
/// `best_lower_bound`.
RatioBracket measure_ratio(const Instance& instance,
                           OnlineScheduler& scheduler, bool clairvoyant,
                           OptMethod method, ExactOptions exact_options = {});

/// Registry-key convenience (clairvoyance inferred from the spec).
RatioBracket measure_ratio(const Instance& instance,
                           const std::string& scheduler_key, OptMethod method,
                           ExactOptions exact_options = {});

}  // namespace fjs
