// Simulated-annealing offline optimizer — a second, independent OPT upper
// bound beside the deterministic alignment local search (heuristic.h).
//
// Any valid schedule upper-bounds OPT, so annealing can only tighten the
// measurement bracket; the benches use the min of both heuristics. Moves
// jump a job either to an alignment breakpoint (exploit) or to a uniform
// random point of its window (explore), with Metropolis acceptance under a
// geometric cooling schedule.
#pragma once

#include <cstdint>

#include "core/instance.h"
#include "core/schedule.h"

namespace fjs {

struct AnnealingOptions {
  std::uint64_t seed = 0xA55A'0001ULL;
  /// Total number of proposed moves.
  std::size_t iterations = 20'000;
  /// Initial temperature as a fraction of the initial span.
  double initial_temperature = 0.10;
  /// Geometric cooling multiplier applied every `cooling_period` moves.
  double cooling = 0.95;
  std::size_t cooling_period = 250;
  /// Probability of an alignment move (vs uniform-random jump).
  double alignment_move_probability = 0.7;
};

struct AnnealingResult {
  Time span;
  Schedule schedule;
  /// Number of accepted moves (diagnostics).
  std::size_t accepted = 0;
};

/// Runs annealing from the all-at-deadline schedule. Deterministic for a
/// fixed (instance, options) pair.
AnnealingResult anneal_schedule(const Instance& instance,
                                AnnealingOptions options = {});

}  // namespace fjs
