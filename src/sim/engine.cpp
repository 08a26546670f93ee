#include "sim/engine.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"
#include "support/telemetry.h"

namespace fjs {
namespace {

// Engine telemetry (docs/OBSERVABILITY.md): all deterministic — under
// --jobs 1 they depend only on the simulated workload, not on timing.
telemetry::Counter g_tm_events{"engine.events",
                               telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_runs{"engine.runs",
                             telemetry::Stability::kDeterministic};
telemetry::Histogram g_tm_heap_depth{"engine.heap_depth",
                                     telemetry::Stability::kDeterministic};

}  // namespace

namespace {

/// Min-heap ordering used by the 4-ary event heap; the strict-weak mirror
/// of EventAfter (earliest time, then kind, then insertion order first).
inline bool event_before(const Event& a, const Event& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  if (a.kind != b.kind) {
    return same_tick_rank(a.kind) < same_tick_rank(b.kind);
  }
  return a.seq < b.seq;
}

}  // namespace

namespace detail {

Time EngineContext::now() const { return engine_.now_; }

bool EngineContext::clairvoyant() const {
  return engine_.options_.clairvoyant;
}

JobView EngineContext::view(JobId id) const {
  const EngineJobRecord& r = engine_.record(id);
  return JobView{.id = id, .arrival = r.job.arrival, .deadline = r.job.deadline};
}

Time EngineContext::length_of(JobId id) const {
  FJS_REQUIRE(engine_.options_.clairvoyant,
              "length_of called in non-clairvoyant mode");
  const EngineJobRecord& r = engine_.record(id);
  FJS_CHECK(r.length_known, "clairvoyant job without a known length");
  return r.job.length;
}

bool EngineContext::is_pending(JobId id) const {
  return engine_.record(id).state == EngineJobState::kPending;
}

const std::vector<JobId>& EngineContext::pending() const {
  return engine_.pending_view();
}

const std::vector<JobId>& EngineContext::running() const {
  return engine_.running_view();
}

void EngineContext::start_job(JobId id) { engine_.start_job(id); }

void EngineContext::set_timer(Time t, std::uint64_t tag) {
  FJS_REQUIRE(t >= engine_.now_, "set_timer: time in the past");
  engine_.push(Event{.time = t,
                     .seq = 0,
                     .tag = tag,
                     .job = kInvalidJob,
                     .kind = EventKind::kSchedulerTimer});
}

}  // namespace detail

Engine::Engine(JobSource& source, LengthOracle& oracle,
               OnlineScheduler& scheduler, EngineOptions options,
               EngineWorkspace* recycle)
    : source_(source),
      oracle_(oracle),
      scheduler_(scheduler),
      options_(options),
      workspace_(recycle),
      now_(Time::min()),
      context_(*this) {
  adopt_workspace();
  if (options_.reserve_jobs > 0) {
    const std::size_t n = options_.reserve_jobs;
    jobs_.reserve(n);
    pending_.reserve(n);
    running_.reserve(n);
    pending_view_.reserve(n);
    running_view_.reserve(n);
    staged_.reserve(n);
    // With arrivals staged, heap occupancy tracks outstanding jobs (their
    // deadline + completion events), not total jobs; still reserve for the
    // worst case so adversarial sources never reallocate mid-run.
    heap_.reserve(2 * n + 16);
  }
}

Engine::~Engine() = default;

void Engine::adopt_workspace() {
  if (workspace_ == nullptr) {
    return;
  }
  jobs_.swap(workspace_->jobs_);
  heap_.swap(workspace_->heap_);
  staged_.swap(workspace_->staged_);
  pending_.swap(workspace_->pending_);
  running_.swap(workspace_->running_);
  pending_view_.swap(workspace_->pending_view_);
  running_view_.swap(workspace_->running_view_);
  std::swap(span_, workspace_->span_);
  jobs_.clear();
  heap_.clear();
  staged_.clear();
  pending_.clear();
  running_.clear();
  pending_view_.clear();
  running_view_.clear();
  span_.clear();
}

void Engine::recycle_workspace() {
  if (workspace_ == nullptr) {
    return;
  }
  jobs_.swap(workspace_->jobs_);
  heap_.swap(workspace_->heap_);
  staged_.swap(workspace_->staged_);
  pending_.swap(workspace_->pending_);
  running_.swap(workspace_->running_);
  pending_view_.swap(workspace_->pending_view_);
  running_view_.swap(workspace_->running_view_);
  std::swap(span_, workspace_->span_);
  workspace_ = nullptr;
}

void Engine::preload_static(
    const std::vector<detail::EngineJobRecord>& records,
    const std::vector<Event>& staged) {
  FJS_REQUIRE(!started_ && jobs_.empty() && staged_.empty() && heap_.empty(),
              "preload_static: engine already holds jobs or events");
  FJS_REQUIRE(records.size() == staged.size(),
              "preload_static: one staged arrival per job record");
  // Copy-assignment reuses the adopted workspace capacity: once warm, a
  // preload is two memcpy-sized copies and no allocation.
  jobs_ = records;
  staged_ = staged;
  next_seq_ = static_cast<std::uint64_t>(staged_.size());
}

Engine::JobRecord& Engine::record(JobId id) {
  FJS_REQUIRE(id < jobs_.size(), "engine: unknown job id");
  return jobs_[id];
}

void Engine::push(Event event) {
  event.seq = next_seq_++;
  heap_insert(event);
}

void Engine::heap_insert(const Event& event) {
  // Hole-based sift-up: shift losing parents down into the hole and place
  // the new event once, instead of swapping (one copy per level, not three).
  std::size_t i = heap_.size();
  heap_.push_back(event);
  heap_high_water_ = std::max(heap_high_water_, heap_.size());
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!event_before(event, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = event;
}

Event Engine::pop_event() {
  const Event top = heap_.front();
  const Event last_event = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) {
    return top;
  }
  // Hole-based sift-down of the displaced last element.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!event_before(heap_[best], last_event)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last_event;
  return top;
}

void Engine::list_push(std::vector<JobId>& list, std::vector<JobId>& view,
                       JobId id) {
  JobRecord& rec = jobs_[id];
  rec.order = next_order_++;
  rec.slot = static_cast<std::uint32_t>(list.size());
  list.push_back(id);
  // The new id carries the largest order rank, so appending keeps the view
  // in rank order; removals only mark the view dirty and are filtered out
  // lazily (compact_view), never re-sorted.
  view.push_back(id);
}

void Engine::list_remove(std::vector<JobId>& list, bool& view_dirty,
                         JobId id) {
  JobRecord& rec = jobs_[id];
  const std::uint32_t slot = rec.slot;
  FJS_CHECK(slot < list.size() && list[slot] == id,
            "engine: job missing from its membership list");
  const JobId moved = list.back();
  list[slot] = moved;
  jobs_[moved].slot = slot;
  list.pop_back();
  view_dirty = true;
}

void Engine::compact_view(std::vector<JobId>& view, JobState wanted) const {
  // Jobs enter each view at most once (pending at arrival, running at
  // start) and never return to an earlier state, so dropping the ids that
  // moved on leaves exactly the current members, still in rank order.
  // Each id is appended once and erased once: amortized O(1) per
  // transition, where a sort-based rebuild would pay O(k log k) per query.
  std::erase_if(view,
                [&](JobId id) { return jobs_[id].state != wanted; });
}

const std::vector<JobId>& Engine::pending_view() {
  if (pending_view_dirty_) {
    compact_view(pending_view_, JobState::kPending);
    pending_view_dirty_ = false;
  }
  return pending_view_;
}

const std::vector<JobId>& Engine::running_view() {
  if (running_view_dirty_) {
    compact_view(running_view_, JobState::kRunning);
    running_view_dirty_ = false;
  }
  return running_view_;
}

void Engine::trace_event(Time t, EventKind kind, JobId job,
                         std::int64_t detail) {
  if (options_.record_trace) {
    trace_.record(TraceEntry{.time = t, .kind = kind, .job = job,
                             .detail = detail});
  }
}

void Engine::release(const JobSpec& spec) {
  FJS_REQUIRE(!started_ || spec.arrival >= now_,
              "source released a job in the past");
  FJS_REQUIRE(spec.arrival <= spec.deadline,
              "source released a job with deadline before arrival");
  if (spec.length.has_value()) {
    FJS_REQUIRE(*spec.length > Time::zero(),
                "source released a job with non-positive length");
    // Starting at the deadline is legal, so deadline + length must be
    // representable or the completion push below would overflow (UB).
    FJS_REQUIRE(spec.deadline <= Time::max() - *spec.length,
                "source released a job whose latest completion overflows "
                "the time axis");
  } else {
    FJS_REQUIRE(!options_.clairvoyant,
                "clairvoyant run requires lengths at release");
  }
  const auto id = static_cast<JobId>(jobs_.size());
  JobRecord rec;
  rec.job = Job{.id = id,
                .arrival = spec.arrival,
                .deadline = spec.deadline,
                .length = spec.length.value_or(Time::zero())};
  rec.length_known = spec.length.has_value();
  jobs_.push_back(rec);
  const Event arrival{.time = spec.arrival,
                      .seq = next_seq_++,
                      .tag = 0,
                      .job = id,
                      .kind = EventKind::kArrival};
  // Releases almost always come in nondecreasing arrival order (static
  // replays sort up front; adaptive sources release at >= now). Those go
  // to the FIFO staging vector so the heap never sees them; an
  // out-of-order release falls back to the heap. pop order is identical
  // either way — both structures are merged by (time, kind, seq).
  if (staged_head_ >= staged_.size() ||
      spec.arrival >= staged_.back().time) {
    staged_.push_back(arrival);
  } else {
    heap_insert(arrival);
  }
}

void Engine::apply(const SourceAction& action) {
  for (const JobSpec& spec : action.releases) {
    release(spec);
  }
  if (action.wakeup.has_value()) {
    FJS_REQUIRE(!started_ || *action.wakeup >= now_,
                "source wakeup in the past");
    push(Event{.time = *action.wakeup,
               .seq = 0,
               .tag = 0,
               .job = kInvalidJob,
               .kind = EventKind::kSourceWakeup});
  }
}

void Engine::start_job(JobId id) {
  JobRecord& rec = record(id);
  FJS_REQUIRE(rec.state == JobState::kPending,
              "start_job: job is not pending");
  FJS_REQUIRE(now_ >= rec.job.arrival, "start_job: before arrival");
  FJS_REQUIRE(now_ <= rec.job.deadline,
              "start_job: job " + rec.job.to_string() +
                  " started after its starting deadline");
  rec.state = JobState::kRunning;
  rec.start = now_;
  list_remove(pending_, pending_view_dirty_, id);
  list_push(running_, running_view_, id);
  trace_event(now_, EventKind::kStart, id, 0);

  if (rec.length_known) {
    span_.add(Interval::from_length(now_, rec.job.length));
    push(Event{.time = now_ + rec.job.length,
               .seq = 0,
               .tag = 0,
               .job = id,
               .kind = EventKind::kCompletion});
  } else {
    const LengthOracle::StartDecision decision = oracle_.at_start(id, now_);
    if (decision.length.has_value()) {
      FJS_REQUIRE(*decision.length > Time::zero(),
                  "oracle returned non-positive length");
      FJS_REQUIRE(now_ <= Time::max() - *decision.length,
                  "oracle returned a length whose completion overflows "
                  "the time axis");
      rec.job.length = *decision.length;
      rec.length_known = true;
      span_.add(Interval::from_length(now_, rec.job.length));
      push(Event{.time = now_ + rec.job.length,
                 .seq = 0,
                 .tag = 0,
                 .job = id,
                 .kind = EventKind::kCompletion});
    } else {
      FJS_REQUIRE(decision.decide_at > now_,
                  "oracle deferral must be strictly in the future");
      push(Event{.time = decision.decide_at,
                 .seq = 0,
                 .tag = 0,
                 .job = id,
                 .kind = EventKind::kLengthDecision});
    }
  }

  apply(source_.on_start(id, now_));
}

void Engine::process(const Event& event) {
  switch (event.kind) {
    case EventKind::kLengthDecision: {
      JobRecord& rec = record(event.job);
      FJS_CHECK(rec.state == JobState::kRunning && !rec.length_known,
                "length decision for a non-running or decided job");
      const Time length = oracle_.decide(event.job, now_);
      FJS_REQUIRE(length > Time::zero(), "oracle decided non-positive length");
      // Checked before any start+length is formed: the old `start + length
      // >= now` guard itself overflowed (UB) on adversarial lengths.
      // length > 0 makes Time::max() - length safe.
      FJS_REQUIRE(rec.start <= Time::max() - length,
                  "oracle decided a length whose completion overflows "
                  "the time axis");
      FJS_REQUIRE(rec.start + length >= now_,
                  "oracle decided a completion in the past");
      rec.job.length = length;
      rec.length_known = true;
      span_.add(Interval::from_length(rec.start, length));
      trace_event(now_, EventKind::kLengthDecision, event.job, length.ticks());
      push(Event{.time = rec.start + length,
                 .seq = 0,
                 .tag = 0,
                 .job = event.job,
                 .kind = EventKind::kCompletion});
      break;
    }
    case EventKind::kCompletion: {
      JobRecord& rec = record(event.job);
      FJS_CHECK(rec.state == JobState::kRunning, "completion of non-running job");
      rec.state = JobState::kDone;
      list_remove(running_, running_view_dirty_, event.job);
      ++done_count_;
      trace_event(now_, EventKind::kCompletion, event.job,
                  rec.job.length.ticks());
      scheduler_.on_completion(context_, event.job);
      apply(source_.on_complete(event.job, now_));
      break;
    }
    case EventKind::kArrival: {
      JobRecord& rec = record(event.job);
      FJS_CHECK(rec.state == JobState::kPending, "duplicate arrival");
      list_push(pending_, pending_view_, event.job);
      push(Event{.time = rec.job.deadline,
                 .seq = 0,
                 .tag = 0,
                 .job = event.job,
                 .kind = EventKind::kDeadline});
      trace_event(now_, EventKind::kArrival, event.job, 0);
      scheduler_.on_arrival(context_, event.job);
      break;
    }
    case EventKind::kDeadline: {
      JobRecord& rec = record(event.job);
      if (rec.state != JobState::kPending) {
        break;  // already started
      }
      trace_event(now_, EventKind::kDeadline, event.job, 0);
      scheduler_.on_deadline(context_, event.job);
      // Re-fetch: the callback may have released jobs (via an adaptive
      // source reacting to starts), reallocating jobs_ under `rec`.
      const JobRecord& after = record(event.job);
      FJS_REQUIRE(after.state != JobState::kPending,
                  "scheduler " + scheduler_.name() +
                      " left job " + after.job.to_string() +
                      " unstarted at its starting deadline");
      break;
    }
    case EventKind::kSchedulerTimer: {
      trace_event(now_, EventKind::kSchedulerTimer, kInvalidJob,
                  static_cast<std::int64_t>(event.tag));
      scheduler_.on_timer(context_, event.tag);
      break;
    }
    case EventKind::kSourceWakeup: {
      trace_event(now_, EventKind::kSourceWakeup, kInvalidJob, 0);
      apply(source_.on_wakeup(now_));
      break;
    }
    case EventKind::kStart:
      FJS_UNREACHABLE("kStart is trace-only, never queued");
  }
}

void Engine::drive() {
  FJS_REQUIRE(!started_, "Engine::run called twice");
  if (scheduler_.requires_clairvoyance()) {
    FJS_REQUIRE(options_.clairvoyant,
                "scheduler " + scheduler_.name() +
                    " requires the clairvoyant model");
  }
  scheduler_.reset();
  apply(source_.begin());
  started_ = true;

  // Two-source merge: the staged arrival FIFO and the heap are combined
  // by the same (time, kind, seq) order the heap alone would yield.
  while (true) {
    const bool have_staged = staged_head_ < staged_.size();
    if (!have_staged && heap_.empty()) {
      break;
    }
    Event event;
    if (have_staged &&
        (heap_.empty() || event_before(staged_[staged_head_], heap_.front()))) {
      event = staged_[staged_head_++];
    } else {
      event = pop_event();
    }
    FJS_CHECK(now_ == Time::min() || event.time >= now_,
              "event time went backwards");
    now_ = event.time;
    ++event_count_;
    FJS_REQUIRE(event_count_ <= options_.max_events,
                "engine exceeded max_events");
    process(event);
  }

  g_tm_events.add(event_count_);
  g_tm_runs.increment();
  g_tm_heap_depth.record(heap_high_water_);
}

SimulationResult Engine::run() {
  drive();

  SimulationResult result;
  std::vector<Job> realized;
  realized.reserve(jobs_.size());
  Schedule schedule(jobs_.size());
  for (JobId id = 0; id < jobs_.size(); ++id) {
    const JobRecord& rec = jobs_[id];
    FJS_CHECK(rec.state == JobState::kDone,
              "job " + rec.job.to_string() + " did not complete");
    FJS_CHECK(rec.length_known, "job completed without a realized length");
    realized.push_back(rec.job);
    schedule.set_start(id, rec.start);
  }
  result.instance = Instance(std::move(realized));
  result.schedule = std::move(schedule);
  result.schedule.validate(result.instance);
  result.trace = std::move(trace_);
  result.event_count = event_count_;
  result.realized_span = span_.span();
  recycle_workspace();
  return result;
}

Time Engine::run_span(std::vector<Time>* starts_out) {
  drive();
  FJS_CHECK(done_count_ == jobs_.size(),
            "run_span: not every released job completed");
  if (starts_out != nullptr) {
    starts_out->resize(jobs_.size());
    for (JobId id = 0; id < jobs_.size(); ++id) {
      (*starts_out)[id] = jobs_[id].start;
    }
  }
  const Time span = span_.span();
  recycle_workspace();
  return span;
}

SimulationResult simulate(const Instance& instance, OnlineScheduler& scheduler,
                          bool clairvoyant, bool record_trace) {
  const EngineWorkspacePool::Lease workspace = engine_workspace_pool().acquire();
  StaticSource source(instance);
  NoDeferralOracle oracle;
  Engine engine(source, oracle, scheduler,
                EngineOptions{.clairvoyant = clairvoyant,
                              .record_trace = record_trace,
                              .reserve_jobs = instance.size()},
                workspace.get());
  return engine.run();
}

Time simulate_span(const Instance& instance, OnlineScheduler& scheduler,
                   bool clairvoyant) {
  const EngineWorkspacePool::Lease workspace = engine_workspace_pool().acquire();
  StaticSource source(instance);
  NoDeferralOracle oracle;
  Engine engine(source, oracle, scheduler,
                EngineOptions{.clairvoyant = clairvoyant,
                              .record_trace = false,
                              .reserve_jobs = instance.size()},
                workspace.get());
  return engine.run_span();
}

EngineWorkspacePool& engine_workspace_pool() {
  static EngineWorkspacePool pool;
  return pool;
}

}  // namespace fjs
