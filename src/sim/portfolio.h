// Batched portfolio simulation kernel: evaluate one instance under many
// schedulers while paying the per-instance setup once.
//
// Every heavy consumer in the repo (the worst-case miner, the fuzz
// oracles, the ratio sweeps) asks "what does scheduler S do on instance
// I?" for several S per I. A plain simulate() call re-derives the arrival
// order, re-builds a StaticSource release vector, and allocates a fresh
// scheduler context for every run. The kernel instead *prepares* the
// instance once — arrival, deadline and length columns in exactly the
// order a StaticSource replay would release them (engine id i = arrival
// seq i) — and replays the prepared timeline for each portfolio entry
// through Engine::preload_static, which reads those columns in place
// rather than copying them. The replay is bit-identical to the classic path
// (same events, same seqs, same tie-breaking), which the portfolio
// determinism tests pin down. Every replay runs from t=0: the miner's
// candidates are ~10 jobs, a whole replay is a few hundred events, and
// resuming from mid-run checkpoints cost more than the suffix it saved
// (docs/PERF.md §4).
//
// The span-only mode (run_spans/run_span) skips Instance/Schedule
// materialization entirely and, with a warm workspace, performs ZERO heap
// allocations per simulation — asserted under FJS_COUNT_ALLOCS (see
// support/alloc_counter.h and docs/PERF.md).
//
// Adaptive adversaries: a source or oracle factory in PortfolioOptions
// marks the instance as adaptive — the realized timeline then depends on
// the scheduler's own actions, so sharing a prepared timeline would be
// unsound. The runner detects this and automatically falls back to
// per-run sources/oracles (shared_timeline() reports which path ran).
#pragma once

#include <functional>
#include <memory>
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

struct PortfolioOptions {
  /// Record a full event trace in full-result mode (ignored by span mode).
  bool record_trace = false;
  /// Adaptive-adversary gate: when either factory is set the prepared
  /// timeline is NOT shared; every entry gets a fresh source/oracle pair
  /// built by the factories (a missing factory falls back to
  /// StaticSource / NoDeferralOracle).
  std::function<std::unique_ptr<JobSource>(const Instance&)> source_factory;
  std::function<std::unique_ptr<LengthOracle>(const Instance&)> oracle_factory;

  bool adaptive() const {
    return static_cast<bool>(source_factory) ||
           static_cast<bool>(oracle_factory);
  }
};

/// An instance lowered to the engine's replay format: arrival, deadline
/// and length columns in the order a StaticSource release stream would
/// have produced (engine ids in arrival order, ties by job id), plus the
/// map back to the instance's own ids. prepare() reuses internal storage,
/// so a PreparedInstance that cycles through many same-sized instances
/// stops allocating. A run preloaded from it borrows the columns, so it
/// must not be re-prepared while that run is in flight.
class PreparedInstance {
 public:
  PreparedInstance() = default;

  /// Validates the jobs (same checks as Engine release) and rebuilds the
  /// columns for `instance`.
  void prepare(const Instance& instance) { prepare(instance.view()); }

  /// Same lowering over a non-owning view (e.g. the miner's mutation
  /// scratch table) — no Instance is materialized. The view only needs to
  /// stay alive for this call; the columns copy everything out.
  void prepare(InstanceView view);

  std::size_t size() const { return arrivals_.size(); }
  /// Columns indexed by engine job id (release order); arrivals are
  /// nondecreasing.
  std::span<const Time> arrivals() const { return arrivals_; }
  std::span<const Time> deadlines() const { return deadlines_; }
  std::span<const Time> lengths() const { return lengths_; }
  /// Maps engine job id (release order) back to the prepared instance's
  /// job id; identity when the instance was already arrival-sorted.
  const std::vector<JobId>& original_ids() const { return original_ids_; }

 private:
  std::vector<Time> arrivals_;
  std::vector<Time> deadlines_;
  std::vector<Time> lengths_;
  std::vector<JobId> original_ids_;
};

/// Span-only portfolio result (convenience-function form).
struct PortfolioSpanResult {
  std::vector<Time> spans;        ///< one per portfolio entry, same order
  bool shared_timeline = false;   ///< prepared fast path used (not adaptive)
};

/// Replays one instance under a portfolio of schedulers. Holds the
/// prepared timeline, a leased engine workspace, and scratch buffers, so
/// a long-lived runner reaches a zero-allocation steady state in span
/// mode. Not thread-safe: use one runner per thread.
class PortfolioRunner {
 public:
  PortfolioRunner() : workspace_(engine_workspace_pool().acquire()) {}

  /// Span-only batch: spans_out[i] is entry i's span on `instance`.
  /// Returns true when the shared prepared timeline was used (always,
  /// unless options carry adaptive factories).
  bool run_spans(const Instance& instance,
                 std::span<const PortfolioEntry> entries,
                 std::vector<Time>& spans_out,
                 const PortfolioOptions& options = {});

  /// View form of the span batch. Shared-timeline only: the adaptive
  /// factories need an owning Instance, so options must not carry any.
  void run_spans(InstanceView view, std::span<const PortfolioEntry> entries,
                 std::vector<Time>& spans_out);

  /// Single-entry span fast path. If `starts_out` is non-null it is
  /// filled with the scheduler's chosen start times indexed by the
  /// instance's own job ids — the online schedule without materializing a
  /// Schedule. Requires the non-adaptive (shared-timeline) path.
  Time run_span(const Instance& instance, const PortfolioEntry& entry,
                std::vector<Time>* starts_out = nullptr,
                const PortfolioOptions& options = {});

  /// View form of the single-entry span path (always shared-timeline).
  /// This is the miner's hot loop: a scratch JobTable is evaluated
  /// without materializing an Instance.
  Time run_span(InstanceView view, const PortfolioEntry& entry,
                std::vector<Time>* starts_out = nullptr);

  /// No-op. Kept only because the perfbench harness still calls it; it
  /// goes when the benchmark contract drops its prefix-replay metrics
  /// (ROADMAP item 1).
  void enable_prefix_replay() {}

  /// Full-result mode: one SimulationResult per entry (realized instance,
  /// validated schedule, optional trace). Still amortizes the prepared
  /// timeline across entries on the non-adaptive path.
  std::vector<SimulationResult> run_full(
      const Instance& instance, std::span<const PortfolioEntry> entries,
      const PortfolioOptions& options = {});

 private:
  Time shared_span(const PortfolioEntry& entry,
                   std::vector<Time>* starts_engine_order);
  Time adaptive_span(const Instance& instance, const PortfolioEntry& entry,
                     const PortfolioOptions& options);

  PreparedInstance prepared_;
  std::vector<Time> starts_scratch_;
  EngineWorkspacePool::Lease workspace_;
};

/// Convenience wrappers over a thread-local PortfolioRunner.
PortfolioSpanResult simulate_portfolio_spans(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options = {});
std::vector<SimulationResult> simulate_portfolio(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options = {});

}  // namespace fjs
