#include "support/telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <mutex>

#include "support/assert.h"

namespace fjs::telemetry {

namespace {

// Hard caps on the metric namespace. Metrics are defined statically at
// namespace scope in instrumented files, so these are compile-time-ish
// budgets, not runtime limits; registration past the cap fails loudly.
constexpr std::size_t kMaxCounters = 64;
constexpr std::size_t kMaxHistograms = 32;
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
  std::int64_t dur_ns;  // < 0 for instant events
  std::uint32_t tid;
};

struct HistogramCells {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

// All of one thread's metric storage: owner-thread relaxed writes,
// snapshot-thread relaxed reads (under the registry mutex, which only
// serializes snapshots against registration/exit — not against writes;
// a concurrent increment simply lands in a later snapshot).
struct ThreadCells {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistogramCells, kMaxHistograms> histograms{};
  std::vector<TraceEvent> trace;
  std::uint32_t tid = 0;
};

struct HistogramTotals {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

struct MetricMeta {
  std::string name;
  Stability stability;
};

struct Registry {
  std::mutex mutex;
  std::vector<MetricMeta> counter_meta;
  std::vector<MetricMeta> histogram_meta;
  std::vector<ThreadCells*> live;
  // Totals flushed from threads that have exited.
  std::array<std::uint64_t, kMaxCounters> retired_counters{};
  std::array<HistogramTotals, kMaxHistograms> retired_histograms{};
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
// aggregate on thread exit so no samples are ever lost.
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
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      HistogramTotals& out = reg.retired_histograms[i];
      const HistogramCells& in = cells->histograms[i];
      out.count += in.count.load(std::memory_order_relaxed);
      out.sum += in.sum.load(std::memory_order_relaxed);
      out.max = std::max(out.max, in.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += in.buckets[b].load(std::memory_order_relaxed);
      }
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
    // First metric touch on this thread: the one (warm-up) allocation.
    auto* cells = new ThreadCells();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    cells->tid = reg.next_tid++;
    reg.live.push_back(cells);
    tl_cells.cells = cells;
  }
  return *tl_cells.cells;
}

std::size_t bucket_of(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

void push_trace_event(const TraceEvent& event) {
  ThreadCells& cells = thread_cells();
  if (cells.trace.capacity() == 0) cells.trace.reserve(kTraceCapacity);
  if (cells.trace.size() >= kTraceCapacity) {
    registry().trace_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent stamped = event;
  stamped.tid = cells.tid;
  cells.trace.push_back(stamped);
}

}  // namespace

Counter::Counter(const char* name, Stability stability) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  FJS_REQUIRE(reg.counter_meta.size() < kMaxCounters,
              "telemetry: counter budget exhausted (raise kMaxCounters)");
  id_ = static_cast<std::uint32_t>(reg.counter_meta.size());
  reg.counter_meta.push_back(MetricMeta{name, stability});
}

void Counter::add(std::uint64_t delta) noexcept {
  thread_cells().counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

Histogram::Histogram(const char* name, Stability stability) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  FJS_REQUIRE(reg.histogram_meta.size() < kMaxHistograms,
              "telemetry: histogram budget exhausted (raise kMaxHistograms)");
  id_ = static_cast<std::uint32_t>(reg.histogram_meta.size());
  reg.histogram_meta.push_back(MetricMeta{name, stability});
}

void Histogram::record(std::uint64_t value) noexcept {
  HistogramCells& cells = thread_cells().histograms[id_];
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
  // Owner-thread-only writes make a load+store max update race-free in
  // practice for the owning thread; concurrent snapshot reads may see
  // the old max, which lands in the next snapshot.
  if (value > cells.max.load(std::memory_order_relaxed)) {
    cells.max.store(value, std::memory_order_relaxed);
  }
  cells.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(Histogram& hist) noexcept
    : hist_(hist), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  hist_.record(static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, now_ns() - start_ns_)));
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
  push_trace_event(TraceEvent{.name = name_,
                              .category = category_,
                              .ts_ns = start_ns_,
                              .dur_ns = std::max<std::int64_t>(
                                  0, end_ns - start_ns_),
                              .tid = 0});
}

Snapshot capture() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);

  Snapshot snap;
  snap.counters.reserve(reg.counter_meta.size());
  for (std::size_t i = 0; i < reg.counter_meta.size(); ++i) {
    CounterValue value;
    value.name = reg.counter_meta[i].name;
    value.stability = reg.counter_meta[i].stability;
    value.value = reg.retired_counters[i];
    for (const ThreadCells* cells : reg.live) {
      value.value += cells->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.push_back(std::move(value));
  }

  snap.histograms.reserve(reg.histogram_meta.size());
  for (std::size_t i = 0; i < reg.histogram_meta.size(); ++i) {
    HistogramValue value;
    value.name = reg.histogram_meta[i].name;
    value.stability = reg.histogram_meta[i].stability;
    value.buckets.assign(kHistogramBuckets, 0);
    const HistogramTotals& retired = reg.retired_histograms[i];
    value.count = retired.count;
    value.sum = retired.sum;
    value.max = retired.max;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      value.buckets[b] = retired.buckets[b];
    }
    for (const ThreadCells* cells : reg.live) {
      const HistogramCells& in = cells->histograms[i];
      value.count += in.count.load(std::memory_order_relaxed);
      value.sum += in.sum.load(std::memory_order_relaxed);
      value.max =
          std::max(value.max, in.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        value.buckets[b] += in.buckets[b].load(std::memory_order_relaxed);
      }
    }
    snap.histograms.push_back(std::move(value));
  }

  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
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

void trace_instant(const char* name, const char* category) noexcept {
  if (!trace_enabled()) return;
  push_trace_event(TraceEvent{.name = name,
                              .category = category,
                              .ts_ns = now_ns(),
                              .dur_ns = -1,
                              .tid = 0});
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

  JsonValue list = JsonValue::array();
  for (const TraceEvent& event : events) {
    JsonValue obj = JsonValue::object();
    obj.set("name", JsonValue::string(event.name));
    obj.set("cat", JsonValue::string(event.category));
    obj.set("ph", JsonValue::string(event.dur_ns < 0 ? "i" : "X"));
    obj.set("ts",
            JsonValue::number(static_cast<double>(event.ts_ns) / 1000.0));
    if (event.dur_ns >= 0) {
      obj.set("dur",
              JsonValue::number(static_cast<double>(event.dur_ns) / 1000.0));
    }
    obj.set("pid", JsonValue::number(1));
    obj.set("tid", JsonValue::number(static_cast<double>(event.tid)));
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

Snapshot delta(const Snapshot& begin, const Snapshot& end) {
  Snapshot out;
  out.counters.reserve(end.counters.size());
  // Both snapshots are sorted by name and metrics are monotonic, so a
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
  bi = 0;
  for (const HistogramValue& eh : end.histograms) {
    while (bi < begin.histograms.size() &&
           begin.histograms[bi].name < eh.name) {
      ++bi;
    }
    HistogramValue dh = eh;
    if (bi < begin.histograms.size() &&
        begin.histograms[bi].name == eh.name) {
      const HistogramValue& bh = begin.histograms[bi];
      dh.count = eh.count - std::min(eh.count, bh.count);
      dh.sum = eh.sum - std::min(eh.sum, bh.sum);
      for (std::size_t b = 0; b < dh.buckets.size() && b < bh.buckets.size();
           ++b) {
        dh.buckets[b] -= std::min(dh.buckets[b], bh.buckets[b]);
      }
      // `max` is not invertible; report the end-of-region max (an upper
      // bound on the region's max) unless the region recorded nothing.
      if (dh.count == 0) dh.max = 0;
    }
    out.histograms.push_back(std::move(dh));
  }
  return out;
}

namespace {

// Lower bound of the value range covered by a log2 bucket.
std::uint64_t bucket_floor(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

// Approximate quantile: the floor of the bucket holding the q-quantile
// sample. Deterministic given deterministic buckets.
std::uint64_t bucket_quantile(const HistogramValue& hist, double q) {
  if (hist.count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(hist.count - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
    seen += hist.buckets[b];
    if (seen > rank) return bucket_floor(b);
  }
  return hist.max;
}

}  // namespace

JsonValue snapshot_json(const Snapshot& snapshot, bool deterministic_only) {
  JsonValue counters = JsonValue::object();
  for (const CounterValue& counter : snapshot.counters) {
    if (deterministic_only && counter.stability != Stability::kDeterministic) {
      continue;
    }
    counters.set(counter.name, JsonValue::unsigned_integer(counter.value));
  }
  JsonValue histograms = JsonValue::object();
  for (const HistogramValue& hist : snapshot.histograms) {
    if (deterministic_only && hist.stability != Stability::kDeterministic) {
      continue;
    }
    JsonValue obj = JsonValue::object();
    obj.set("count", JsonValue::unsigned_integer(hist.count));
    obj.set("sum", JsonValue::unsigned_integer(hist.sum));
    obj.set("max", JsonValue::unsigned_integer(hist.max));
    obj.set("p50", JsonValue::unsigned_integer(bucket_quantile(hist, 0.50)));
    obj.set("p99", JsonValue::unsigned_integer(bucket_quantile(hist, 0.99)));
    histograms.set(hist.name, std::move(obj));
  }
  JsonValue doc = JsonValue::object();
  doc.set("counters", std::move(counters));
  doc.set("histograms", std::move(histograms));
  return doc;
}

}  // namespace fjs::telemetry
