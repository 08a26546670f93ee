// Cross-checking oracles for the differential fuzzing harness.
//
// Each oracle is an independent correctness claim over one instance, built
// from parts of the codebase that share as little code as possible:
//
//  * sched:<key>/<model> — the scheduler produces a complete, valid
//    schedule; its recorded trace passes the independent trace validator
//    (including the same-tick half-open ordering rules); the engine's
//    incremental SpanTracker span equals a from-scratch IntervalSet
//    recomputation; and a scheduler that does not require clairvoyance
//    makes the identical decisions whether or not lengths are revealed
//    (length-oracle consistency).
//  * ratio-bounds — the certified lower bounds, the descriptive instance
//    stats and one online span hold together on EVERY instance, including
//    near-Time::max() magnitudes the offline oracles skip: stats never
//    throw, and best_lower_bound <= the eager online span (>= OPT).
//  * offline-sandwich — certified lower bounds, the exact branch-and-bound,
//    the alignment heuristic and annealing must bracket correctly:
//    LB <= OPT <= heuristic/annealing, and online spans >= OPT.
//  * exact-vs-reference — on integral instances the branch-and-bound and
//    the legacy grid DFS agree exactly.
//  * view-vs-owned — always on, never size- or horizon-capped: an
//    InstanceView over an independently rebuilt JobTable scratch buffer
//    (the miner's mutate-evaluate path) is observably identical to the
//    owning Instance — derived stats, certified lower bounds, the
//    prepared replay timeline, and the view-based run_span spans.
//
// An oracle returns std::nullopt on success or a one-failure description;
// oracles are pure (no shared state), so the harness may evaluate them
// from many threads at once.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"

namespace fjs {

/// Size/effort caps for the expensive oracles. The scheduler oracles run
/// on every instance; the offline oracles only where the solvers are
/// tractable and tick magnitudes are far from the overflow boundary.
struct OracleOptions {
  bool run_schedulers = true;
  bool run_offline = true;

  std::size_t exact_max_jobs = 9;
  std::size_t exact_max_nodes = 400'000;
  std::size_t reference_max_jobs = 7;
  std::size_t reference_max_nodes = 4'000'000;
  /// Annealing proposals per instance (kept small: it is one of three
  /// independent upper bounds, not the star of the show).
  std::size_t annealing_iterations = 1'500;
  /// Offline oracles skip instances whose latest completion exceeds this
  /// many units — near-overflow magnitudes are for the engine/trace
  /// oracles, not for alignment arithmetic.
  std::int64_t offline_horizon_cap_units = 1'000'000;
};

/// A named correctness claim. `check` returns nullopt when the instance
/// satisfies it, else a human-readable failure description.
struct Oracle {
  std::string name;
  std::function<std::optional<std::string>(const Instance&)> check;
};

/// One oracle failure on one instance.
struct FuzzFailure {
  std::string oracle;
  std::string detail;
};

/// The standard battery described above, honoring `options`.
std::vector<Oracle> standard_oracles(const OracleOptions& options = {});

/// The per-scheduler oracle for one spec (named "sched:<key>"). Exposed so
/// tests can aim it at deliberately broken schedulers.
struct SchedulerSpec;
Oracle scheduler_oracle(const SchedulerSpec& spec);

/// Runs every oracle; returns all failures (empty = instance clean).
std::vector<FuzzFailure> run_oracles(const Instance& instance,
                                     const std::vector<Oracle>& oracles);

}  // namespace fjs
