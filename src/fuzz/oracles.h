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
//  * offline-sandwich — certified lower bounds, the exact branch-and-bound
//    and the alignment heuristic must bracket correctly: LB <= OPT <=
//    heuristic, online spans >= OPT, and the exact witness is valid and
//    achieves OPT. OPT is also additive: the instance's window components,
//    split by the oracle's own code and solved as instances of their own,
//    have optima that sum to the whole instance's optimum.
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

/// The scheduler oracles run on every instance; the offline oracles
/// (unless switched off here) only where the solvers are tractable and
/// tick magnitudes are far from the overflow boundary (the size, node and
/// horizon caps are constants in oracles.cpp).
struct OracleOptions {
  bool run_offline = true;
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
