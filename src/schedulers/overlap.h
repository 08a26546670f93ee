// Greedy-overlap heuristic (extension, not from the paper).
//
// Clairvoyant. Start a pending job as soon as at least a θ-fraction of its
// would-be active interval [now, now+p) is covered by the intervals of
// currently running jobs (whose completion times are known from their
// lengths); otherwise wait — the starting deadline is the backstop. After
// every start the remaining pending jobs are re-examined, so overlap
// opportunities cascade.
//
// This is the "what a practitioner would try first" comparator: it chases
// the same objective as Profit (only spend span that is mostly shared)
// without Profit's flag-job machinery, and the benches show where it loses
// the worst-case guarantee.
#pragma once

#include <vector>

#include "sim/scheduler.h"

namespace fjs {

class OverlapScheduler final : public OnlineScheduler {
 public:
  /// `theta` in (0, 1]: required covered fraction of a job's interval.
  explicit OverlapScheduler(double theta = 0.5);

  std::string name() const override;
  bool requires_clairvoyance() const override { return true; }

  void on_arrival(SchedulerContext& ctx, JobId id) override;
  void on_deadline(SchedulerContext& ctx, JobId id) override;
  void on_completion(SchedulerContext& ctx, JobId id) override;
  void reset() override;

  double theta() const { return theta_; }

 private:
  /// A running job's occupied interval [start, start + p).
  struct RunningInterval {
    JobId job;
    Interval iv;
  };

  bool overlap_sufficient(SchedulerContext& ctx, JobId id) const;
  /// Starts `id` and then any pending jobs unlocked by new coverage.
  void start_and_cascade(SchedulerContext& ctx, JobId id);
  /// Sorted insert into running_intervals_ (by (iv.lo, job)).
  void insert_running(JobId id, const Interval& iv);

  double theta_;
  /// Interval of every currently running job (we started them all, so we
  /// know their start times; lengths come from clairvoyance). Kept as a
  /// flat vector sorted by (iv.lo, job): the set is small and scanned on
  /// every arrival, so a sorted vector beats a node-based map on the
  /// coverage query (one pass, no IntervalSet materialization).
  std::vector<RunningInterval> running_intervals_;
};

}  // namespace fjs
