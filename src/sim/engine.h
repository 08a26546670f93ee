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
// Two ways in, one per kind of instance:
//   * fixed instances: preload_static() installs a PreparedInstance's
//     columns and the run never consults its source. simulate(),
//     simulate_span() and every PortfolioRunner call take this path
//     (sim/portfolio.h).
//   * adaptive adversaries: Engine(source, oracle, scheduler) then run();
//     jobs arrive through release() as the source reacts to the run.
//     StaticSource replays a fixed instance the same way; tests and the
//     fuzz oracles use it as the reference the preloaded path must match.
//
// Throughput notes: pending/running membership is the job's state; the
// arrival-order and start-order vectors handed to schedulers are
// append-ordered views compacted lazily (state filter, never a sort), only
// when a scheduler asks after a removal. Static job data (arrival,
// deadline, length) is read through column pointers: a preloaded run
// borrows the PreparedInstance columns in place, so per run the engine
// initializes only a 16-byte mutable record per job. Arrivals never enter
// the heap: a preloaded run reads job i's arrival event straight off the
// arrival column, and released jobs that come in nondecreasing order are
// staged in a FIFO vector; either stream is merged against the heap at pop
// time, so the heap only holds outstanding deadline/completion/timer
// events. A deadline event is queued only if its job is still pending
// after the arrival callback (most schedulers start most jobs on arrival,
// and a started job's deadline is a no-op). The heap is 4-ary over a plain
// vector so its storage can be reserved and recycled, and orders events by
// time plus one tie word. The running span is maintained incrementally
// (SpanTracker, O(1) per start), so span queries never rebuild the
// interval union from scratch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/span_tracker.h"
#include "sim/events.h"
#include "sim/length_oracle.h"
#include "sim/scheduler.h"
#include "sim/source.h"
#include "sim/trace.h"
#include "support/assert.h"

namespace fjs {

struct EngineOptions {
  /// Reveal processing lengths to the scheduler at arrival (§4 model).
  bool clairvoyant = false;
  /// Record a full event trace in the result.
  bool record_trace = false;
  /// Hard cap on processed events (runaway-adversary guard).
  std::size_t max_events = 50'000'000;
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

/// Internal per-job mutable state; the job's static data lives in the
/// engine's column pointers. Exposed at namespace scope only so
/// EngineWorkspace can recycle the storage; not a public API.
struct EngineJobRecord {
  Time start;
  EngineJobState state = EngineJobState::kPending;
  bool length_known = false;
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
  std::vector<Time> released_arrival_;
  std::vector<Time> released_deadline_;
  std::vector<Time> released_length_;
  std::vector<Event> heap_;
  std::vector<Event> staged_;
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
  Time run_span();

  /// Static replay: installs n prevalidated jobs, engine id i being
  /// (arrivals[i], deadlines[i], lengths[i]) with arrivals nondecreasing,
  /// exactly as a StaticSource release stream would have produced them
  /// (job i's arrival carries seq i), without consulting a source. The
  /// columns are borrowed, not copied: they must outlive the run. Only
  /// the per-job mutable state is initialized and the buffers are sized
  /// from n, in recycled storage, so a warm workspace makes this
  /// allocation-free. Must be called before run()/run_span(), with an
  /// empty engine; the run never consults its JobSource (pass a null
  /// source). See sim/portfolio.h for the public wrapper.
  void preload_static(std::span<const Time> arrivals,
                      std::span<const Time> deadlines,
                      std::span<const Time> lengths);

 private:
  friend class detail::EngineContext;

  using JobRecord = detail::EngineJobRecord;
  using JobState = detail::EngineJobState;

  void adopt_workspace();
  void recycle_workspace();
  void swap_workspace();
  void apply(const SourceAction& action);
  void release(JobId id, const JobSpec& spec);
  void push(EventKind kind, Time time, JobId job, std::uint64_t tag = 0);
  void heap_insert(const Event& event);
  Event pop_event();
  Event staged_event(std::size_t i) const;
  void count_event() {
    ++event_count_;
    FJS_REQUIRE(event_count_ <= options_.max_events,
                "engine exceeded max_events");
  }
  Job job_of(JobId id) const;
  void set_length(JobId id, Time length);
  void start_job(JobId id);
  void process(const Event& event);
  void drive();
  void trace_event(Time t, EventKind kind, JobId job, std::int64_t detail);
  /// Range-checked lookup for ids that come from a scheduler.
  JobRecord& record(JobId id) {
    FJS_REQUIRE(id < jobs_.size(), "engine: unknown job id");
    return jobs_[id];
  }

  /// Lazily compacted views handed to schedulers (arrival / start order).
  const std::vector<JobId>& pending_view();
  const std::vector<JobId>& running_view();
  void compact_view(std::vector<JobId>& view, JobState wanted) const;

  JobSource& source_;
  LengthOracle& oracle_;
  OnlineScheduler& scheduler_;
  EngineOptions options_;
  EngineWorkspace* workspace_;

  /// 4-ary min-heap on (time, tie word) — see events.h for the ordering.
  std::vector<Event> heap_;
  /// Arrival events released in nondecreasing time order, consumed from
  /// staged_[staged_head_..]; merged against heap_ at pop time. A
  /// preloaded run leaves it empty and reads arrivals off arrival_.
  std::vector<Event> staged_;
  std::size_t staged_head_ = 0;
  std::size_t staged_end_ = 0;
  bool preloaded_ = false;
  std::uint64_t next_seq_ = 0;
  Time now_;
  bool started_ = false;

  /// Static job data by engine id: borrowed from the caller on a preloaded
  /// run, else the released_* columns (re-pointed after every release).
  const Time* arrival_ = nullptr;
  const Time* deadline_ = nullptr;
  const Time* length_ = nullptr;  ///< meaningful once length_known
  std::vector<Time> released_arrival_;
  std::vector<Time> released_deadline_;
  std::vector<Time> released_length_;

  std::vector<JobRecord> jobs_;
  /// Pending jobs in arrival order and running jobs in start order, plus
  /// (once dirty) jobs that have since moved on; see compact_view().
  std::vector<JobId> pending_view_;
  std::vector<JobId> running_view_;
  bool pending_view_dirty_ = false;
  bool running_view_dirty_ = false;
  std::size_t done_count_ = 0;
  SpanTracker span_;
  Trace trace_;
  std::size_t event_count_ = 0;

  detail::EngineContext context_;
};

/// Simulates a fixed instance. The returned result's instance has jobs in
/// arrival order of `instance` (re-indexed); its schedule is validated
/// before returning. Runs through a thread-local PortfolioRunner (defined
/// in portfolio.cpp), so back-to-back calls on one thread reuse its
/// prepared columns and engine workspace.
SimulationResult simulate(InstanceView instance, OnlineScheduler& scheduler,
                          bool clairvoyant, bool record_trace = false);

/// Like simulate(), but returns the span only (PortfolioRunner::run_span):
/// no trace, no result construction, no second validation pass. A warm
/// thread allocates nothing.
Time simulate_span(InstanceView instance, OnlineScheduler& scheduler,
                   bool clairvoyant);

}  // namespace fjs
