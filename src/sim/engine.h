// Discrete-event simulation engine for online FJS.
//
// The engine owns the event queue and the job lifecycle
// (released → pending → running → done), enforces the model's rules
// (start window, clairvoyance gating, "every job starts by its starting
// deadline"), and mediates between three pluggable parties:
//   * the JobSource (possibly an adaptive adversary releasing jobs in
//     response to observed scheduler actions),
//   * the LengthOracle (possibly an adaptive adversary fixing processing
//     lengths after starts),
//   * the OnlineScheduler under test.
//
// Throughput notes: pending/running membership uses per-job slot indices
// with swap-and-pop removal (O(1) per transition); the arrival-order and
// start-order vectors handed to schedulers are append-ordered views
// compacted lazily (state filter, never a sort), only when a scheduler
// asks after a removal. Arrival events whose
// release times come in nondecreasing order (every static replay) are
// staged in a FIFO vector and merged against the heap at pop time, so the
// heap only ever holds the few outstanding deadline/completion/timer
// events instead of every future arrival — the difference between O(log n)
// on tens of entries and on tens of thousands. The heap itself is 4-ary
// over a plain vector so its storage can be reserved and recycled. The
// running span is maintained incrementally (SpanTracker), so span queries
// never rebuild the interval union from scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/span_tracker.h"
#include "sim/events.h"
#include "sim/length_oracle.h"
#include "sim/scheduler.h"
#include "sim/source.h"
#include "sim/trace.h"
#include "support/object_pool.h"

namespace fjs {

struct EngineOptions {
  /// Reveal processing lengths to the scheduler at arrival (§4 model).
  bool clairvoyant = false;
  /// Record a full event trace in the result.
  bool record_trace = false;
  /// Hard cap on processed events (runaway-adversary guard).
  std::size_t max_events = 50'000'000;
  /// Expected number of released jobs; pre-sizes job/event/list storage so
  /// large static runs don't pay vector growth. 0 = no pre-sizing.
  std::size_t reserve_jobs = 0;
};

struct SimulationResult {
  /// The realized instance: all released jobs with their realized lengths,
  /// ids in release order.
  Instance instance;
  /// Start times chosen by the online scheduler (complete and valid).
  Schedule schedule;
  Trace trace;
  std::size_t event_count = 0;
  /// Span maintained incrementally during the run; always equals
  /// schedule.span(instance).
  Time realized_span;

  /// Convenience: span of the online schedule (O(1), tracked by the run).
  Time span() const { return realized_span; }
};

class Engine;

namespace detail {

enum class EngineJobState : std::uint8_t { kPending, kRunning, kDone };

/// Internal per-job state. Exposed at namespace scope only so
/// EngineWorkspace can recycle the storage; not a public API.
struct EngineJobRecord {
  Job job;  ///< length is only meaningful once length_known
  EngineJobState state = EngineJobState::kPending;
  bool length_known = false;
  Time start;
  /// Index of this job inside pending_ (while pending) or running_
  /// (while running); meaningless otherwise.
  std::uint32_t slot = 0;
  /// Monotone rank assigned at arrival (while pending) and reassigned at
  /// start (while running); the sorted views order by it.
  std::uint64_t order = 0;
};

/// Engine-backed implementation of the scheduler-facing context. Held by
/// value inside Engine (it is just a vtable pointer plus a back-reference)
/// so constructing an engine performs no allocation; methods live in
/// engine.cpp.
class EngineContext final : public SchedulerContext {
 public:
  explicit EngineContext(Engine& engine) : engine_(engine) {}

  Time now() const override;
  bool clairvoyant() const override;
  JobView view(JobId id) const override;
  Time length_of(JobId id) const override;
  bool is_pending(JobId id) const override;
  const std::vector<JobId>& pending() const override;
  const std::vector<JobId>& running() const override;
  void start_job(JobId id) override;
  void set_timer(Time t, std::uint64_t tag) override;

 private:
  Engine& engine_;
};

}  // namespace detail

/// Recyclable buffer set for running many simulations without paying
/// per-run allocation. Opaque: hand it to consecutive Engine constructions
/// (one at a time) and each run returns its storage here on completion.
/// Not thread-safe — use one workspace per thread.
class EngineWorkspace {
 public:
  EngineWorkspace() = default;
  EngineWorkspace(const EngineWorkspace&) = delete;
  EngineWorkspace& operator=(const EngineWorkspace&) = delete;

 private:
  friend class Engine;
  std::vector<detail::EngineJobRecord> jobs_;
  std::vector<Event> heap_;
  std::vector<Event> staged_;
  std::vector<JobId> pending_;
  std::vector<JobId> running_;
  std::vector<JobId> pending_view_;
  std::vector<JobId> running_view_;
  SpanTracker span_;
};

/// Runs one simulation. The engine is single-use: construct, run() (or
/// run_span()), read the result. Scheduler state is reset() before the run.
class Engine {
 public:
  /// If `recycle` is non-null, the engine adopts the workspace's buffers
  /// and returns them (capacity intact) when the run completes.
  Engine(JobSource& source, LengthOracle& oracle, OnlineScheduler& scheduler,
         EngineOptions options = {}, EngineWorkspace* recycle = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimulationResult run();

  /// Fast path for sweeps: runs the simulation and returns only the span,
  /// skipping the realized instance/schedule construction and the
  /// (redundant — every start was already window-checked) validation pass.
  /// If `starts_out` is non-null it is resized to the released job count
  /// and filled with the chosen start times, indexed by engine job id
  /// (release order) — the cheap way to recover the online schedule
  /// without materializing an Instance/Schedule pair.
  Time run_span(std::vector<Time>* starts_out = nullptr);

  /// Portfolio fast path: installs a prebuilt job-record template and the
  /// matching staged arrival events (seq 0..n-1, nondecreasing times)
  /// exactly as a StaticSource release stream would have produced them,
  /// without consulting a source. Both vectors are copied into recycled
  /// storage — zero allocations once the workspace is warm. Must be called
  /// before run()/run_span(), with an empty engine, and the run's
  /// JobSource must release nothing (use a null source). See
  /// sim/portfolio.h for the public wrapper.
  void preload_static(const std::vector<detail::EngineJobRecord>& records,
                      const std::vector<Event>& staged);

 private:
  friend class detail::EngineContext;

  using JobRecord = detail::EngineJobRecord;
  using JobState = detail::EngineJobState;

  void adopt_workspace();
  void recycle_workspace();
  void apply(const SourceAction& action);
  void release(const JobSpec& spec);
  void push(Event event);
  void heap_insert(const Event& event);
  Event pop_event();
  void start_job(JobId id);
  void process(const Event& event);
  void drive();
  void trace_event(Time t, EventKind kind, JobId job, std::int64_t detail);
  JobRecord& record(JobId id);

  /// O(1) membership update helpers (swap-and-pop + slot fixup).
  void list_push(std::vector<JobId>& list, std::vector<JobId>& view, JobId id);
  void list_remove(std::vector<JobId>& list, bool& view_dirty, JobId id);

  /// Lazily compacted views handed to schedulers (arrival / start order).
  const std::vector<JobId>& pending_view();
  const std::vector<JobId>& running_view();
  void compact_view(std::vector<JobId>& view, JobState wanted) const;

  JobSource& source_;
  LengthOracle& oracle_;
  OnlineScheduler& scheduler_;
  EngineOptions options_;
  EngineWorkspace* workspace_;

  /// 4-ary min-heap on (time, kind, seq) — see events.h for the ordering.
  std::vector<Event> heap_;
  /// Arrival events released in nondecreasing time order, consumed from
  /// staged_[staged_head_..]; merged against heap_ at pop time.
  std::vector<Event> staged_;
  std::size_t staged_head_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_order_ = 0;
  Time now_;
  bool started_ = false;

  std::vector<JobRecord> jobs_;
  std::vector<JobId> pending_;   ///< unordered storage, slot-indexed
  std::vector<JobId> running_;   ///< unordered storage, slot-indexed
  std::vector<JobId> pending_view_;  ///< arrival order, rebuilt on demand
  std::vector<JobId> running_view_;  ///< start order, rebuilt on demand
  bool pending_view_dirty_ = false;
  bool running_view_dirty_ = false;
  std::size_t done_count_ = 0;
  SpanTracker span_;
  Trace trace_;
  std::size_t event_count_ = 0;
  std::size_t heap_high_water_ = 0;  ///< per-run peak heap size (telemetry)

  detail::EngineContext context_;
};

/// Convenience wrapper: simulate a fixed instance. The returned result's
/// instance has jobs in arrival order of `instance` (re-indexed); its
/// schedule is validated before returning. Reuses a thread-local
/// EngineWorkspace, so back-to-back calls don't pay per-run allocation.
SimulationResult simulate(const Instance& instance, OnlineScheduler& scheduler,
                          bool clairvoyant, bool record_trace = false);

/// Like simulate(), but returns the span only, via Engine::run_span() —
/// no trace, no result construction, no second validation pass.
Time simulate_span(const Instance& instance, OnlineScheduler& scheduler,
                   bool clairvoyant);

/// Per-thread free-list of engine workspaces. Call sites that used to
/// hand-thread an EngineWorkspace through their loops acquire() a lease
/// instead; the workspace returns to the calling thread's list when the
/// lease dies, capacity ("warmth") intact.
using EngineWorkspacePool = ObjectPool<EngineWorkspace>;
EngineWorkspacePool& engine_workspace_pool();

}  // namespace fjs
