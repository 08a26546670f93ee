// Telemetry: process-wide counters, log-bucketed histograms, scoped
// timers and a Chrome-tracing event recorder, built for hot paths.
//
// Design constraints (see docs/OBSERVABILITY.md for the catalog):
//
//  * Zero steady-state allocations. Each thread gets one fixed-size
//    block of atomic cells, allocated on that thread's first metric
//    touch (a warm-up cost, bracketed away by test_portfolio_allocs
//    exactly like the engine workspaces). After that, a counter
//    bump is a single relaxed fetch_add on a thread-owned cell.
//  * Lock-free on the hot path. The registry mutex is taken only on
//    metric registration (static initialization), thread first-touch /
//    exit, snapshotting, and trace export — never per increment.
//  * Deterministic snapshots. Metrics are tagged with a Stability:
//    kDeterministic metrics (events simulated, prefix-cache hits, ...)
//    depend only on the workload and are byte-stable across `--jobs 1`
//    runs of a deterministic workload; kTiming metrics (latencies)
//    vary run to run and are excluded from stable artifacts like the
//    manifest's telemetry block.
//  * Always compiled in; no build turns it off. Hot loops keep plain
//    local counts and add them to a counter once per call or run (the
//    miner once per mine); docs/PERF.md §8 records what the layer costs.
//
// Usage: define metrics at namespace scope in the instrumented .cpp —
//
//   static telemetry::Counter g_hits{"miner.memo_hits",
//                                    telemetry::Stability::kDeterministic};
//   ...
//   g_hits.add(1);
//
// and read them back with telemetry::capture() / telemetry::delta().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.h"

namespace fjs::telemetry {

/// How a metric behaves across repeated runs of the same workload.
enum class Stability {
  kDeterministic,  // function of the workload alone (under --jobs 1)
  kTiming,         // scheduling/timing dependent; excluded from manifests
};

/// Number of log2 buckets in a histogram: bucket i counts values v with
/// bit_width(v) == i, i.e. bucket 0 is {0}, bucket 1 is {1}, bucket 2 is
/// {2,3}, and so on up to bucket 64 for values with the top bit set.
inline constexpr std::size_t kHistogramBuckets = 65;

/// A named monotonic counter. Construct at namespace scope (registration
/// takes the registry mutex); add() is wait-free on the owning thread.
class Counter {
 public:
  Counter(const char* name, Stability stability);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) noexcept;
  void increment() noexcept { add(1); }

 private:
  std::uint32_t id_;
};

/// A named log2-bucketed histogram of non-negative values. record() is
/// wait-free on the owning thread; merged totals are order-independent.
class Histogram {
 public:
  Histogram(const char* name, Stability stability);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) noexcept;

 private:
  std::uint32_t id_;
};

/// RAII wall-clock timer: records elapsed nanoseconds into a Histogram
/// on destruction. Timing metrics are inherently Stability::kTiming.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& hist_;
  std::int64_t start_ns_;
};

/// RAII trace span: emits one Chrome-tracing "X" (complete) event when
/// tracing is enabled, nothing otherwise (one relaxed load to check).
/// `name` and `category` must outlive the trace export (string literals,
/// or strings kept alive until trace_json() is rendered).
class TraceScope {
 public:
  TraceScope(const char* name, const char* category) noexcept;
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::int64_t start_ns_;
  bool active_;
};

/// Point-in-time value of one counter.
struct CounterValue {
  std::string name;
  Stability stability = Stability::kDeterministic;
  std::uint64_t value = 0;
};

/// Point-in-time value of one histogram (merged across threads).
struct HistogramValue {
  std::string name;
  Stability stability = Stability::kTiming;
  std::uint64_t count = 0;  // number of recorded values
  std::uint64_t sum = 0;    // sum of recorded values
  std::uint64_t max = 0;    // largest recorded value
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets log2 buckets
};

/// A merged view of every registered metric, summed over live threads
/// and threads that have since exited. Sorted by name.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<HistogramValue> histograms;
};

/// Captures a merged snapshot of all metrics. Safe to call while other
/// threads keep incrementing (their in-flight updates land in a later
/// snapshot).
Snapshot capture();

/// Per-name difference `end - begin` (metrics are monotonic; names
/// missing from `begin` count from zero). Used to attribute activity to
/// a bracketed region, e.g. one experiments run.
Snapshot delta(const Snapshot& begin, const Snapshot& end);

/// Renders a snapshot as a JSON object:
///   {"counters": {"engine.events": 123, ...},
///    "histograms": {"engine.heap_depth": {"count":..,"sum":..,"max":..,
///                                         "p50":..,"p99":..}, ...}}
/// With deterministic_only, kTiming metrics are dropped — the remaining
/// block is byte-stable for deterministic workloads under --jobs 1.
JsonValue snapshot_json(const Snapshot& snapshot, bool deterministic_only);

/// Turns the trace recorder on/off. While off (the default), TraceScope
/// and trace_instant() cost one relaxed load. Enabling mid-run starts
/// from the events already buffered; use reset_trace() for a clean slate.
void set_trace_enabled(bool enabled);
bool trace_enabled() noexcept;

/// Drops all buffered trace events (live threads and retired buffers).
void reset_trace();

/// Records a zero-duration instant event ("i" phase) when tracing is on.
void trace_instant(const char* name, const char* category) noexcept;

/// Renders buffered events as a Chrome-tracing JSON document:
///   {"displayTimeUnit":"ms","traceEvents":[{"name":..,"cat":..,"ph":"X",
///     "ts":<us>,"dur":<us>,"pid":1,"tid":<n>}, ...]}
/// Load it at chrome://tracing or https://ui.perfetto.dev. Call only
/// while no other thread is emitting events (e.g. after a TaskGroup
/// barrier); events are buffered per thread without locks.
JsonValue trace_json();

/// Number of trace events dropped because a thread's buffer filled up.
std::uint64_t trace_dropped_events();

}  // namespace fjs::telemetry
