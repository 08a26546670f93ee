// Telemetry: process-wide counters and a Chrome-tracing span recorder,
// built for hot paths.
//
// Design constraints (see docs/OBSERVABILITY.md for the catalog):
//
//  * Zero steady-state allocations. Each thread gets one fixed-size
//    block of atomic cells, allocated on that thread's first counter
//    touch (a warm-up cost, bracketed away by test_portfolio_allocs
//    exactly like the engine workspaces). After that, a counter
//    bump is a single relaxed fetch_add on a thread-owned cell.
//  * Lock-free on the hot path. The registry mutex is taken only on
//    counter registration (static initialization), thread first-touch /
//    exit, snapshotting, and trace export — never per increment.
//  * Deterministic snapshots. Every counter (events simulated, descent
//    moves, miner candidates, ...) depends only on the workload, so a
//    snapshot is byte-stable across `--jobs 1` runs of a deterministic
//    workload. Wall time goes to trace spans, never to counters.
//  * Always compiled in; no build turns it off. Hot loops keep plain
//    local counts and add them to a counter once per call or run (the
//    miner once per mine); docs/PERF.md §8 records what the layer costs.
//
// Usage: define counters at namespace scope in the instrumented .cpp —
//
//   static telemetry::Counter g_hits{"miner.memo_hits"};
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

/// A named monotonic counter. Construct at namespace scope (registration
/// takes the registry mutex); add() is wait-free on the owning thread.
class Counter {
 public:
  explicit Counter(const char* name);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) noexcept;
  void increment() noexcept { add(1); }

 private:
  std::uint32_t id_;
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
  std::uint64_t value = 0;
};

/// A merged view of every registered counter, summed over live threads
/// and threads that have since exited. Sorted by name.
struct Snapshot {
  std::vector<CounterValue> counters;
};

/// Captures a merged snapshot of all counters. Safe to call while other
/// threads keep incrementing (their in-flight updates land in a later
/// snapshot).
Snapshot capture();

/// Per-name difference `end - begin` (counters are monotonic; names
/// missing from `begin` count from zero). Used to attribute activity to
/// a bracketed region, e.g. one experiments run.
Snapshot delta(const Snapshot& begin, const Snapshot& end);

/// Renders a snapshot as a JSON object:
///   {"counters": {"engine.events": 123, ...}}
/// The block is byte-stable for deterministic workloads under --jobs 1.
JsonValue snapshot_json(const Snapshot& snapshot);

/// Turns the trace recorder on/off. While off (the default), TraceScope
/// costs one relaxed load. Enabling mid-run starts from the events
/// already buffered; use reset_trace() for a clean slate.
void set_trace_enabled(bool enabled);
bool trace_enabled() noexcept;

/// Drops all buffered trace events (live threads and retired buffers).
void reset_trace();

/// Renders buffered events as a Chrome-tracing JSON document:
///   {"displayTimeUnit":"ms","traceEvents":[{"name":..,"cat":..,"ph":"X",
///     "ts":<us>,"dur":<us>,"pid":1,"tid":<n>}, ...]}
/// `ts` and `dur` are whole microseconds, written as exact integers.
/// Load it at chrome://tracing or https://ui.perfetto.dev. Call only
/// while no other thread is emitting events (e.g. after a TaskGroup
/// barrier); events are buffered per thread without locks.
JsonValue trace_json();

/// Number of trace events dropped because a thread's buffer filled up.
std::uint64_t trace_dropped_events();

}  // namespace fjs::telemetry
