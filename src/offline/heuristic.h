// Offline heuristic: a strong upper bound on the optimal span for
// instances too large for the exact solver.
//
// Pipeline: several greedy constructions (align-to-placed with different
// insertion orders) followed by coordinate-descent local search. For one
// job with all others fixed, the marginal span is piecewise linear in the
// start, so its exact minimum lies at a window endpoint or at an alignment
// with another interval's endpoint — the candidate set we scan.
#pragma once

#include <cstdint>

#include "core/instance.h"
#include "core/schedule.h"

namespace fjs {

struct HeuristicOptions {
  /// Number of randomized greedy restarts (in addition to the two
  /// deterministic seeds: deadline order and arrival order).
  int restarts = 3;
  /// Cap on local-search passes per restart.
  int max_passes = 40;
  std::uint64_t seed = 0x5EEDF00DULL;
};

struct HeuristicResult {
  Time span;
  Schedule schedule;
};

/// Returns a valid schedule whose span upper-bounds (and usually closely
/// tracks) the optimum.
HeuristicResult heuristic_optimal(InstanceView instance,
                                  HeuristicOptions options = {});

/// Convenience: the heuristic span only.
Time heuristic_span(InstanceView instance, HeuristicOptions options = {});

}  // namespace fjs
