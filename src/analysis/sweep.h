// Parallel ratio sweeps: run many (instance × scheduler) simulations and
// aggregate competitive-ratio statistics. Deterministic regardless of the
// worker count: the engine resets each scheduler before every run and
// results are reduced in index order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"
#include "offline/heuristic.h"
#include "support/stats.h"
#include "support/thread_pool.h"

namespace fjs {

struct SweepCase {
  std::string label;
  std::uint64_t seed = 0;
  Instance instance;
};

struct SchedulerAggregate {
  std::string scheduler_key;
  /// Conservative per-case ratios (online / heuristic OPT upper bound).
  Summary ratio_lower;
  /// Upper-estimate per-case ratios (online / certified OPT lower bound).
  Summary ratio_upper;
  /// Raw spans, for absolute comparisons.
  Summary spans;
};

struct SweepOptions {
  /// Effort knob for the heuristic OPT upper bound.
  HeuristicOptions heuristic_options = {};
  /// nullptr = use the process-global pool.
  ThreadPool* pool = nullptr;
  /// Force serial execution (for determinism tests).
  bool serial = false;
};

/// Measures every scheduler on every case. OPT bounds are computed once
/// per case and shared across schedulers. Every case must have a job;
/// an empty one throws AssertionError naming its index and label.
std::vector<SchedulerAggregate> run_ratio_sweep(
    const std::vector<SweepCase>& cases,
    const std::vector<std::string>& scheduler_keys,
    const SweepOptions& options = {});

/// Builds sweep cases from a workload config: `replicas` instances with
/// seeds seed0, seed0+1, ...
std::vector<SweepCase> make_cases(const struct WorkloadConfig& config,
                                  const std::string& label,
                                  std::size_t replicas, std::uint64_t seed0);

}  // namespace fjs
