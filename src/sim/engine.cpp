#include "sim/engine.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"
#include "support/telemetry.h"

namespace fjs {
namespace {

// Engine telemetry (docs/OBSERVABILITY.md): all deterministic — under
// --jobs 1 they depend only on the simulated workload, not on timing.
telemetry::Counter g_tm_events{"engine.events"};
telemetry::Counter g_tm_runs{"engine.runs"};

}  // namespace

namespace detail {

Time EngineContext::now() const { return engine_.now_; }

bool EngineContext::clairvoyant() const {
  return engine_.options_.clairvoyant;
}

JobView EngineContext::view(JobId id) const {
  (void)engine_.record(id);  // bounds check
  return JobView{.id = id,
                 .arrival = engine_.arrival_[id],
                 .deadline = engine_.deadline_[id]};
}

Time EngineContext::length_of(JobId id) const {
  FJS_REQUIRE(engine_.options_.clairvoyant,
              "length_of called in non-clairvoyant mode");
  const EngineJobRecord& r = engine_.record(id);
  FJS_CHECK(r.length_known, "clairvoyant job without a known length");
  return engine_.length_[id];
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
  engine_.push(EventKind::kSchedulerTimer, t, kInvalidJob, tag);
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
}

Engine::~Engine() = default;

void Engine::adopt_workspace() {
  if (workspace_ == nullptr) {
    return;
  }
  swap_workspace();
  jobs_.clear();
  released_arrival_.clear();
  released_deadline_.clear();
  released_length_.clear();
  heap_.clear();
  staged_.clear();
  pending_view_.clear();
  running_view_.clear();
  span_.clear();
}

void Engine::recycle_workspace() {
  if (workspace_ == nullptr) {
    return;
  }
  swap_workspace();
  workspace_ = nullptr;
}

void Engine::swap_workspace() {
  jobs_.swap(workspace_->jobs_);
  released_arrival_.swap(workspace_->released_arrival_);
  released_deadline_.swap(workspace_->released_deadline_);
  released_length_.swap(workspace_->released_length_);
  heap_.swap(workspace_->heap_);
  staged_.swap(workspace_->staged_);
  pending_view_.swap(workspace_->pending_view_);
  running_view_.swap(workspace_->running_view_);
  std::swap(span_, workspace_->span_);
}

void Engine::preload_static(std::span<const Time> arrivals,
                            std::span<const Time> deadlines,
                            std::span<const Time> lengths) {
  FJS_REQUIRE(!started_ && jobs_.empty() && staged_.empty() && heap_.empty(),
              "preload_static: engine already holds jobs or events");
  FJS_REQUIRE(arrivals.size() == deadlines.size() &&
                  arrivals.size() == lengths.size(),
              "preload_static: columns differ in length");
  const std::size_t n = arrivals.size();
  // assign() and reserve() reuse the adopted workspace capacity: once
  // warm, a preload writes n small records and allocates nothing.
  JobRecord known;
  known.length_known = true;
  jobs_.assign(n, known);
  pending_view_.reserve(n);
  running_view_.reserve(n);
  // With arrivals outside the heap, heap occupancy tracks outstanding
  // jobs (their deadline + completion events), not total jobs; reserve
  // for the worst case so a run never reallocates mid-way.
  heap_.reserve(2 * n + 16);
  arrival_ = arrivals.data();
  deadline_ = deadlines.data();
  length_ = lengths.data();
  preloaded_ = true;
  staged_end_ = n;
  next_seq_ = static_cast<std::uint64_t>(n);
}

Job Engine::job_of(JobId id) const {
  return Job{.id = id,
             .arrival = arrival_[id],
             .deadline = deadline_[id],
             .length = length_[id]};
}

void Engine::set_length(JobId id, Time length) {
  // Only released jobs can have a deferred length: preloaded ones are
  // known from the start.
  released_length_[id] = length;
  jobs_[id].length_known = true;
}

void Engine::push(EventKind kind, Time time, JobId job, std::uint64_t tag) {
  heap_insert(Event{.time = time,
                    .tie = tie_word(kind, next_seq_++),
                    .tag = tag,
                    .job = job,
                    .kind = kind});
}

Event Engine::staged_event(std::size_t i) const {
  if (preloaded_) {
    // Exactly the event StaticSource's release of job i would have staged.
    return Event{.time = arrival_[i],
                 .tie = tie_word(EventKind::kArrival, i),
                 .tag = 0,
                 .job = static_cast<JobId>(i),
                 .kind = EventKind::kArrival};
  }
  return staged_[i];
}

void Engine::heap_insert(const Event& event) {
  // Hole-based sift-up: shift losing parents down into the hole and place
  // the new event once, instead of swapping (one copy per level, not three).
  std::size_t i = heap_.size();
  heap_.push_back(event);
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

void Engine::compact_view(std::vector<JobId>& view, JobState wanted) const {
  // Jobs enter each view at most once (pending at arrival, running at
  // start) and never return to an earlier state, so dropping the ids that
  // moved on leaves exactly the current members, still in order.
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

void Engine::release(JobId id, const JobSpec& spec) {
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
  jobs_[id].length_known = spec.length.has_value();
  released_arrival_[id] = spec.arrival;
  released_deadline_[id] = spec.deadline;
  released_length_[id] = spec.length.value_or(Time::zero());
  const Event arrival{.time = spec.arrival,
                      .tie = tie_word(EventKind::kArrival, next_seq_++),
                      .tag = 0,
                      .job = id,
                      .kind = EventKind::kArrival};
  // Releases almost always come in nondecreasing arrival order (static
  // replays sort up front; adaptive sources release at >= now). Those go
  // to the FIFO staging vector so the heap never sees them; an
  // out-of-order release falls back to the heap. pop order is identical
  // either way — both structures are merged by (time, tie word).
  if (staged_head_ >= staged_.size() ||
      spec.arrival >= staged_.back().time) {
    staged_.push_back(arrival);
    staged_end_ = staged_.size();
  } else {
    heap_insert(arrival);
  }
}

void Engine::apply(const SourceAction& action) {
  if (!action.releases.empty()) {
    // Grow the job storage once per batch (a static replay releases every
    // job in one batch), then fill it in release order.
    const std::size_t first = jobs_.size();
    const std::size_t n = first + action.releases.size();
    jobs_.resize(n);
    released_arrival_.resize(n);
    released_deadline_.resize(n);
    released_length_.resize(n);
    arrival_ = released_arrival_.data();
    deadline_ = released_deadline_.data();
    length_ = released_length_.data();
    for (std::size_t k = 0; k < action.releases.size(); ++k) {
      release(static_cast<JobId>(first + k), action.releases[k]);
    }
  }
  if (action.wakeup.has_value()) {
    FJS_REQUIRE(!started_ || *action.wakeup >= now_,
                "source wakeup in the past");
    push(EventKind::kSourceWakeup, *action.wakeup, kInvalidJob);
  }
}

void Engine::start_job(JobId id) {
  JobRecord& rec = record(id);
  FJS_REQUIRE(rec.state == JobState::kPending,
              "start_job: job is not pending");
  FJS_REQUIRE(now_ >= arrival_[id], "start_job: before arrival");
  FJS_REQUIRE(now_ <= deadline_[id],
              "start_job: job " + job_of(id).to_string() +
                  " started after its starting deadline");
  rec.state = JobState::kRunning;
  rec.start = now_;
  // Appending keeps each view in its order; removals only mark the view
  // dirty and are filtered out lazily (compact_view), never re-sorted.
  pending_view_dirty_ = true;
  running_view_.push_back(id);
  trace_event(now_, EventKind::kStart, id, 0);

  if (rec.length_known) {
    span_.add(Interval::from_length(now_, length_[id]));
    push(EventKind::kCompletion, now_ + length_[id], id);
  } else {
    const LengthOracle::StartDecision decision = oracle_.at_start(id, now_);
    if (decision.length.has_value()) {
      FJS_REQUIRE(*decision.length > Time::zero(),
                  "oracle returned non-positive length");
      FJS_REQUIRE(now_ <= Time::max() - *decision.length,
                  "oracle returned a length whose completion overflows "
                  "the time axis");
      set_length(id, *decision.length);
      span_.add(Interval::from_length(now_, *decision.length));
      push(EventKind::kCompletion, now_ + *decision.length, id);
    } else {
      FJS_REQUIRE(decision.decide_at > now_,
                  "oracle deferral must be strictly in the future");
      push(EventKind::kLengthDecision, decision.decide_at, id);
    }
  }

  if (!preloaded_) {
    apply(source_.on_start(id, now_));
  }
}

void Engine::process(const Event& event) {
  // Job ids on queued events were assigned by the engine itself, so they
  // index jobs_ without the range check scheduler-supplied ids get.
  switch (event.kind) {
    case EventKind::kLengthDecision: {
      JobRecord& rec = jobs_[event.job];
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
      set_length(event.job, length);
      span_.add(Interval::from_length(rec.start, length));
      trace_event(now_, EventKind::kLengthDecision, event.job, length.ticks());
      push(EventKind::kCompletion, rec.start + length, event.job);
      break;
    }
    case EventKind::kCompletion: {
      JobRecord& rec = jobs_[event.job];
      FJS_CHECK(rec.state == JobState::kRunning, "completion of non-running job");
      rec.state = JobState::kDone;
      running_view_dirty_ = true;
      ++done_count_;
      trace_event(now_, EventKind::kCompletion, event.job,
                  length_[event.job].ticks());
      scheduler_.on_completion(context_, event.job);
      if (!preloaded_) {
        apply(source_.on_complete(event.job, now_));
      }
      break;
    }
    case EventKind::kArrival: {
      FJS_CHECK(jobs_[event.job].state == JobState::kPending,
                "duplicate arrival");
      pending_view_.push_back(event.job);
      // The deadline's place in the pop order is fixed here, before the
      // scheduler runs; the event is queued only if the job is still
      // pending afterwards. A started job's deadline pops as a no-op, so
      // eliding it changes nothing but the heap size; it still counts as
      // a processed event, keeping event_count independent of elision.
      const std::uint64_t deadline_seq = next_seq_++;
      trace_event(now_, EventKind::kArrival, event.job, 0);
      scheduler_.on_arrival(context_, event.job);
      if (jobs_[event.job].state == JobState::kPending) {
        heap_insert(Event{.time = deadline_[event.job],
                          .tie = tie_word(EventKind::kDeadline, deadline_seq),
                          .tag = 0,
                          .job = event.job,
                          .kind = EventKind::kDeadline});
      } else {
        count_event();
      }
      break;
    }
    case EventKind::kDeadline: {
      JobRecord& rec = jobs_[event.job];
      if (rec.state != JobState::kPending) {
        break;  // already started
      }
      trace_event(now_, EventKind::kDeadline, event.job, 0);
      scheduler_.on_deadline(context_, event.job);
      // Re-fetch: the callback may have released jobs (via an adaptive
      // source reacting to starts), reallocating jobs_ under `rec`.
      const JobRecord& after = jobs_[event.job];
      FJS_REQUIRE(after.state != JobState::kPending,
                  "scheduler " + scheduler_.name() +
                      " left job " + job_of(event.job).to_string() +
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
  // A preloaded run already holds its whole timeline: the source is never
  // consulted.
  if (!preloaded_) {
    apply(source_.begin());
  }
  started_ = true;

  // Two-source merge: the staged arrivals and the heap are combined by
  // the same (time, tie word) order the heap alone would yield.
  while (true) {
    Event event;
    if (staged_head_ < staged_end_) {
      event = staged_event(staged_head_);
      if (heap_.empty() || event_before(event, heap_.front())) {
        ++staged_head_;
      } else {
        event = pop_event();
      }
    } else if (!heap_.empty()) {
      event = pop_event();
    } else {
      break;
    }
    FJS_CHECK(now_ == Time::min() || event.time >= now_,
              "event time went backwards");
    now_ = event.time;
    count_event();
    process(event);
  }

  g_tm_events.add(event_count_);
  g_tm_runs.increment();
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
              "job " + job_of(id).to_string() + " did not complete");
    FJS_CHECK(rec.length_known, "job completed without a realized length");
    realized.push_back(job_of(id));
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

Time Engine::run_span() {
  drive();
  FJS_CHECK(done_count_ == jobs_.size(),
            "run_span: not every released job completed");
  const Time span = span_.span();
  recycle_workspace();
  return span;
}

}  // namespace fjs
