// A schedule assigns every job a start time; span and validity checks.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/interval_set.h"

namespace fjs {

/// Start-time assignment for the jobs of an Instance.
///
/// A Schedule may be partial while under construction; all queries that
/// depend on completeness (span, validate) require it complete unless noted.
/// Queries read the job rows through an InstanceView (an Instance converts
/// to one). A view accessor is unchecked, so every query that indexes rows
/// by this schedule's ids first requires the view to cover them: a view
/// smaller than the schedule throws AssertionError.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t job_count);

  /// Builds a complete schedule from a start vector (one entry per job).
  static Schedule from_starts(const std::vector<Time>& starts);

  std::size_t size() const { return starts_.size(); }

  bool is_set(JobId id) const;
  bool complete() const;

  void set_start(JobId id, Time start);
  Time start(JobId id) const;

  /// Active interval of a job under this schedule.
  Interval active_interval(InstanceView inst, JobId id) const;

  /// Union of all active intervals. Requires completeness.
  IntervalSet active_set(InstanceView inst) const;

  /// span = measure of the union of active intervals (§2).
  Time span(InstanceView inst) const;

  /// Throws AssertionError unless every job has
  /// arrival <= start <= deadline. Requires completeness.
  void validate(InstanceView inst) const;

  /// Non-throwing validity probe.
  bool is_valid(InstanceView inst) const;

  /// Number of jobs running at time t (interval semantics are half-open).
  std::size_t concurrency_at(InstanceView inst, Time t) const;

  /// Peak number of simultaneously running jobs.
  std::size_t max_concurrency(InstanceView inst) const;

  /// Step function of running-job counts: breakpoints (t, c) meaning the
  /// concurrency is c on [t, next breakpoint). Starts at the first start
  /// event and ends with a (t, 0) entry at the last completion.
  std::vector<std::pair<Time, std::size_t>> concurrency_profile(
      InstanceView inst) const;

  /// Latest completion time across jobs; Time::zero() for empty schedules.
  Time makespan_end(InstanceView inst) const;

  /// Σ (start - arrival): total start delay introduced by the scheduler.
  Time total_delay(InstanceView inst) const;

  const std::vector<std::optional<Time>>& starts() const { return starts_; }

  std::string to_string(InstanceView inst) const;

  /// Plain-text serialization: count, then one start per line in units
  /// ("-" for unset slots). Round-trips through parse().
  void write(std::ostream& os) const;
  static Schedule parse(std::istream& is);

 private:
  /// Throws unless `inst` has a row for every slot of this schedule.
  void require_covered_by(InstanceView inst) const;

  std::vector<std::optional<Time>> starts_;
};

/// Summary metrics for reporting.
struct ScheduleMetrics {
  Time span;
  Time makespan_end;
  std::size_t max_concurrency = 0;
  Time total_delay;
  Time total_work;
  /// span / total_work: < 1 means real parallel overlap was achieved.
  double span_over_work = 0.0;
};

ScheduleMetrics compute_metrics(const Instance& inst, const Schedule& sched);

}  // namespace fjs
