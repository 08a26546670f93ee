// Static replay kernel: evaluate fixed instances under one or many
// schedulers while paying the per-instance setup once.
//
// Every fixed-instance simulation in the library goes through here:
// simulate() and simulate_span() run on a thread-local PortfolioRunner,
// and the heavy consumers (the worst-case miner, the fuzz oracles, the
// ratio sweeps) hold their own long-lived or thread-local runners. The
// runner *prepares* the instance once — arrival, deadline and length
// columns in exactly the order a StaticSource replay would release them
// (engine id i = arrival seq i) — and replays the prepared timeline for
// each portfolio entry through Engine::preload_static, which reads those
// columns in place rather than copying them. The replay is bit-identical
// to the release path (same events, same seqs, same tie-breaking), which
// the portfolio determinism tests and the fuzz oracles pin against a
// StaticSource replay. Every replay runs from t=0: the miner's candidates
// are ~10 jobs, a whole replay is a few hundred events, and resuming from
// mid-run checkpoints cost more than the suffix it saved (docs/PERF.md §4).
//
// The span-only mode (run_spans/run_span) skips Instance/Schedule
// materialization entirely and, with a warm runner, performs ZERO heap
// allocations per simulation — asserted by the test_portfolio_allocs
// ctest, which links a counting operator new (docs/PERF.md).
//
// Adaptive adversaries do not come through here: their timeline depends
// on the scheduler's own actions, so they drive an Engine with their
// JobSource/LengthOracle directly (sim/engine.h).
#pragma once

#include <span>
#include <vector>

#include "sim/engine.h"

namespace fjs {

/// One scheduler in the portfolio. Non-owning: the scheduler must outlive
/// the run and is reset() by the engine before each replay.
struct PortfolioEntry {
  OnlineScheduler* scheduler = nullptr;
  bool clairvoyant = false;
};

/// An instance lowered to the engine's replay format: arrival, deadline
/// and length columns in the order a StaticSource release stream would
/// have produced (engine ids in arrival order, ties by job id).
/// prepare() reuses internal storage,
/// so a PreparedInstance that cycles through many same-sized instances
/// stops allocating. A run preloaded from it borrows the columns, so it
/// must not be re-prepared while that run is in flight.
class PreparedInstance {
 public:
  PreparedInstance() = default;

  /// Validates the jobs (same checks as Engine release) and rebuilds the
  /// columns for `view` — an Instance, or e.g. the miner's incumbent table
  /// with one row patched, so no Instance is materialized. The view only
  /// needs to stay alive for this call; the columns copy everything out.
  void prepare(InstanceView view);

  std::size_t size() const { return arrivals_.size(); }
  /// Columns indexed by engine job id (release order); arrivals are
  /// nondecreasing.
  std::span<const Time> arrivals() const { return arrivals_; }
  std::span<const Time> deadlines() const { return deadlines_; }
  std::span<const Time> lengths() const { return lengths_; }

 private:
  std::vector<Time> arrivals_;
  std::vector<Time> deadlines_;
  std::vector<Time> lengths_;
  // Sort scratch for views not already in arrival order: the instance id
  // of each engine job id.
  std::vector<JobId> by_arrival_;
};

/// Replays fixed instances under a portfolio of schedulers. Holds the
/// prepared timeline, an engine workspace and scratch buffers, so a
/// long-lived (or thread-local) runner reaches a zero-allocation steady
/// state in span mode. Not thread-safe: use one runner per thread.
class PortfolioRunner {
 public:
  /// Span-only batch: spans_out[i] is entry i's span on `view`.
  void run_spans(InstanceView view, std::span<const PortfolioEntry> entries,
                 std::vector<Time>& spans_out);

  /// Single-entry span path. This is the miner's hot loop: its incumbent
  /// JobTable, with one row patched in place, is evaluated without
  /// materializing an Instance.
  Time run_span(InstanceView view, const PortfolioEntry& entry);

  /// Full-result mode, the body of simulate(): realized instance (jobs in
  /// arrival order), validated schedule, optional trace.
  SimulationResult run_full(InstanceView view, const PortfolioEntry& entry,
                            bool record_trace = false);

  /// No-op. Kept only because the perfbench harness still calls it; it
  /// goes when the benchmark contract drops its prefix-replay metrics
  /// (ROADMAP item 1).
  void enable_prefix_replay() {}

 private:
  Time replay_span(const PortfolioEntry& entry);

  PreparedInstance prepared_;
  EngineWorkspace workspace_;
};

}  // namespace fjs
