#include "support/telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>

#include "support/assert.h"

namespace fjs::telemetry {

namespace {

// Hard cap on the counter namespace. Counters are defined statically at
// namespace scope in instrumented files, so this is a compile-time-ish
// budget, not a runtime limit; registration past the cap fails loudly.
constexpr std::size_t kMaxCounters = 64;
// Per-thread trace buffer: one reserve() when a thread emits its first
// event while tracing is on; events past the cap are counted as dropped
// rather than reallocating mid-run.
constexpr std::size_t kTraceCapacity = 1 << 14;

std::int64_t now_ns() noexcept {
  // One process-wide epoch so per-thread timestamps share an origin.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

struct TraceEvent {
  const char* name;
  const char* category;
  std::int64_t ts_ns;
  std::int64_t dur_ns;
  std::uint32_t tid;
};

// All of one thread's storage: owner-thread relaxed writes,
// snapshot-thread relaxed reads (under the registry mutex, which only
// serializes snapshots against registration/exit — not against writes;
// a concurrent increment simply lands in a later snapshot).
struct ThreadCells {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::vector<TraceEvent> trace;
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::string> counter_names;
  std::vector<ThreadCells*> live;
  // Totals flushed from threads that have exited.
  std::array<std::uint64_t, kMaxCounters> retired_counters{};
  std::vector<TraceEvent> retired_trace;
  std::uint32_t next_tid = 1;
  std::atomic<bool> tracing{false};
  std::atomic<std::uint64_t> trace_dropped{0};
};

Registry& registry() {
  // Deliberately leaked: worker threads may exit during static
  // destruction (pool teardown) and their flush must find the registry
  // alive regardless of TU initialization order.
  static Registry* r = new Registry();
  return *r;
}

// Owns the calling thread's cells; flushes them into the retired
// aggregate on thread exit so no counts are ever lost.
struct ThreadHandle {
  ThreadCells* cells = nullptr;

  ~ThreadHandle() {
    if (cells == nullptr) return;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      reg.retired_counters[i] +=
          cells->counters[i].load(std::memory_order_relaxed);
    }
    reg.retired_trace.insert(reg.retired_trace.end(), cells->trace.begin(),
                             cells->trace.end());
    reg.live.erase(std::find(reg.live.begin(), reg.live.end(), cells));
    delete cells;
  }
};

thread_local ThreadHandle tl_cells;

ThreadCells& thread_cells() {
  if (tl_cells.cells == nullptr) {
    // First counter touch on this thread: the one (warm-up) allocation.
    auto* cells = new ThreadCells();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    cells->tid = reg.next_tid++;
    reg.live.push_back(cells);
    tl_cells.cells = cells;
  }
  return *tl_cells.cells;
}

}  // namespace

Counter::Counter(const char* name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  FJS_REQUIRE(reg.counter_names.size() < kMaxCounters,
              "telemetry: counter budget exhausted (raise kMaxCounters)");
  id_ = static_cast<std::uint32_t>(reg.counter_names.size());
  reg.counter_names.emplace_back(name);
}

void Counter::add(std::uint64_t delta) noexcept {
  thread_cells().counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

TraceScope::TraceScope(const char* name, const char* category) noexcept
    : name_(name),
      category_(category),
      start_ns_(0),
      active_(trace_enabled()) {
  if (active_) start_ns_ = now_ns();
}

TraceScope::~TraceScope() {
  if (!active_) return;
  const std::int64_t end_ns = now_ns();
  ThreadCells& cells = thread_cells();
  if (cells.trace.capacity() == 0) cells.trace.reserve(kTraceCapacity);
  if (cells.trace.size() >= kTraceCapacity) {
    registry().trace_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  cells.trace.push_back(TraceEvent{
      .name = name_,
      .category = category_,
      .ts_ns = start_ns_,
      .dur_ns = std::max<std::int64_t>(0, end_ns - start_ns_),
      .tid = cells.tid});
}

Snapshot capture() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);

  Snapshot snap;
  snap.counters.reserve(reg.counter_names.size());
  for (std::size_t i = 0; i < reg.counter_names.size(); ++i) {
    CounterValue value;
    value.name = reg.counter_names[i];
    value.value = reg.retired_counters[i];
    for (const ThreadCells* cells : reg.live) {
      value.value += cells->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.push_back(std::move(value));
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterValue& a, const CounterValue& b) {
              return a.name < b.name;
            });
  return snap;
}

Snapshot delta(const Snapshot& begin, const Snapshot& end) {
  Snapshot out;
  out.counters.reserve(end.counters.size());
  // Both snapshots are sorted by name and counters are monotonic, so a
  // merge walk suffices; names absent from `begin` start from zero.
  std::size_t bi = 0;
  for (const CounterValue& ec : end.counters) {
    while (bi < begin.counters.size() && begin.counters[bi].name < ec.name) {
      ++bi;
    }
    CounterValue dc = ec;
    if (bi < begin.counters.size() && begin.counters[bi].name == ec.name) {
      dc.value = ec.value - std::min(ec.value, begin.counters[bi].value);
    }
    out.counters.push_back(std::move(dc));
  }
  return out;
}

JsonValue snapshot_json(const Snapshot& snapshot) {
  JsonValue counters = JsonValue::object();
  for (const CounterValue& counter : snapshot.counters) {
    counters.set(counter.name, JsonValue::unsigned_integer(counter.value));
  }
  JsonValue doc = JsonValue::object();
  doc.set("counters", std::move(counters));
  return doc;
}

void set_trace_enabled(bool enabled) {
  registry().tracing.store(enabled, std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return registry().tracing.load(std::memory_order_relaxed);
}

void reset_trace() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.retired_trace.clear();
  for (ThreadCells* cells : reg.live) cells->trace.clear();
  reg.trace_dropped.store(0, std::memory_order_relaxed);
}

JsonValue trace_json() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<TraceEvent> events = reg.retired_trace;
  for (const ThreadCells* cells : reg.live) {
    events.insert(events.end(), cells->trace.begin(), cells->trace.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.tid < b.tid;
            });

  auto micros = [](std::int64_t ns) {
    return JsonValue::unsigned_integer(static_cast<std::uint64_t>(ns / 1000));
  };
  JsonValue list = JsonValue::array();
  for (const TraceEvent& event : events) {
    JsonValue obj = JsonValue::object();
    obj.set("name", JsonValue::string(event.name));
    obj.set("cat", JsonValue::string(event.category));
    obj.set("ph", JsonValue::string("X"));
    obj.set("ts", micros(event.ts_ns));
    obj.set("dur", micros(event.dur_ns));
    obj.set("pid", JsonValue::unsigned_integer(1));
    obj.set("tid", JsonValue::unsigned_integer(event.tid));
    list.push_back(std::move(obj));
  }
  JsonValue doc = JsonValue::object();
  doc.set("displayTimeUnit", JsonValue::string("ms"));
  doc.set("traceEvents", std::move(list));
  return doc;
}

std::uint64_t trace_dropped_events() {
  return registry().trace_dropped.load(std::memory_order_relaxed);
}

}  // namespace fjs::telemetry
