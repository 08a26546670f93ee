// The online scheduler interface and the context the engine exposes to it.
//
// Clairvoyance is an engine-enforced capability: in non-clairvoyant runs
// SchedulerContext::length_of throws, so a scheduler cannot accidentally
// peek at processing lengths the paper's model hides.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/job.h"
#include "core/time.h"

namespace fjs {

/// What a scheduler may know about a job. The processing length is not
/// part of the view; it must be requested via SchedulerContext::length_of,
/// which is gated on the clairvoyance mode.
struct JobView {
  JobId id = kInvalidJob;
  Time arrival;
  Time deadline;

  Time laxity() const { return deadline - arrival; }
};

/// Engine-provided capabilities available inside scheduler callbacks.
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  /// Current simulation time.
  virtual Time now() const = 0;

  /// True iff processing lengths are revealed at arrival (§4 model).
  virtual bool clairvoyant() const = 0;

  /// Arrival/deadline of any job that has arrived.
  virtual JobView view(JobId id) const = 0;

  /// Processing length of an arrived job. Throws AssertionError in
  /// non-clairvoyant mode.
  virtual Time length_of(JobId id) const = 0;

  /// True iff the job has arrived and not yet started. O(1) — the check a
  /// timer callback needs to stay robust against a job force-started by
  /// on_deadline at the same event time (deadline events outrank timers).
  virtual bool is_pending(JobId id) const = 0;

  /// Jobs that have arrived but not yet started, in arrival order.
  virtual const std::vector<JobId>& pending() const = 0;

  /// Jobs currently running, in start order.
  virtual const std::vector<JobId>& running() const = 0;

  /// Starts a pending job at the current time. The engine validates the
  /// start window and handles completion scheduling.
  virtual void start_job(JobId id) = 0;

  /// Requests an on_timer callback at time t >= now() with the given tag.
  virtual void set_timer(Time t, std::uint64_t tag) = 0;
};

/// Base class for online schedulers. The engine calls the hooks in
/// deterministic event order (see EventKind); a scheduler reacts by calling
/// SchedulerContext::start_job.
///
/// Contract: after on_deadline(ctx, id) returns, job `id` must have been
/// started (by this callback or an earlier one) — FJS requires every job to
/// start by its starting deadline. The engine throws otherwise.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  virtual std::string name() const = 0;

  /// True for schedulers that read length_of (CDB, Profit, Doubler).
  virtual bool requires_clairvoyance() const { return false; }

  /// A new job arrived (and is pending).
  virtual void on_arrival(SchedulerContext& ctx, JobId id) = 0;

  /// A pending job reached its starting deadline: start it now.
  virtual void on_deadline(SchedulerContext& ctx, JobId id) = 0;

  /// A running job completed.
  virtual void on_completion(SchedulerContext& ctx, JobId id) {
    (void)ctx;
    (void)id;
  }

  /// A timer requested via set_timer fired.
  virtual void on_timer(SchedulerContext& ctx, std::uint64_t tag) {
    (void)ctx;
    (void)tag;
  }

  /// Clears all per-run state so the object can drive a fresh simulation.
  virtual void reset() {}
};

}  // namespace fjs
