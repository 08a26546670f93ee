#include "schedulers/overlap.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/assert.h"
#include "support/string_util.h"

namespace fjs {

OverlapScheduler::OverlapScheduler(double theta) : theta_(theta) {
  FJS_REQUIRE(theta_ > 0.0 && theta_ <= 1.0, "overlap: theta in (0, 1]");
}

std::string OverlapScheduler::name() const {
  std::ostringstream os;
  os << "overlap(theta=" << format_double(theta_, 3) << ')';
  return os.str();
}

bool OverlapScheduler::overlap_sufficient(SchedulerContext& ctx,
                                          JobId id) const {
  const Time now = ctx.now();
  const Interval candidate = Interval::from_length(now, ctx.length_of(id));
  // Union-measure within the candidate in one pass: the intervals are
  // sorted by lo (they may overlap each other), so tracking the covered
  // frontier gives the union without materializing an IntervalSet.
  Time covered = Time::zero();
  Time frontier = candidate.lo;
  for (const RunningInterval& r : running_intervals_) {
    if (r.iv.lo >= candidate.hi) {
      break;
    }
    const Time lo = std::max(r.iv.lo, frontier);
    const Time hi = std::min(r.iv.hi, candidate.hi);
    if (hi > lo) {
      covered += hi - lo;
      frontier = hi;
    }
  }
  return static_cast<double>(covered.ticks()) >=
         theta_ * static_cast<double>(candidate.length().ticks());
}

void OverlapScheduler::insert_running(JobId id, const Interval& iv) {
  const auto pos = std::upper_bound(
      running_intervals_.begin(), running_intervals_.end(),
      std::make_pair(iv.lo, id), [](const auto& key, const RunningInterval& r) {
        if (key.first != r.iv.lo) {
          return key.first < r.iv.lo;
        }
        return key.second < r.job;
      });
  running_intervals_.insert(pos, RunningInterval{id, iv});
}

void OverlapScheduler::start_and_cascade(SchedulerContext& ctx, JobId id) {
  ctx.start_job(id);
  insert_running(id, Interval::from_length(ctx.now(), ctx.length_of(id)));
  // New coverage may unlock other pending jobs; fixpoint over the pending
  // set (each pass starts at least one job or stops).
  bool progress = true;
  while (progress) {
    progress = false;
    const std::vector<JobId> pending = ctx.pending();
    for (const JobId job : pending) {
      if (overlap_sufficient(ctx, job)) {
        ctx.start_job(job);
        insert_running(job, Interval::from_length(ctx.now(), ctx.length_of(job)));
        progress = true;
      }
    }
  }
}

void OverlapScheduler::on_arrival(SchedulerContext& ctx, JobId id) {
  if (overlap_sufficient(ctx, id)) {
    start_and_cascade(ctx, id);
  }
}

void OverlapScheduler::on_deadline(SchedulerContext& ctx, JobId id) {
  start_and_cascade(ctx, id);
}

void OverlapScheduler::on_completion(SchedulerContext& /*ctx*/, JobId id) {
  const auto it = std::find_if(
      running_intervals_.begin(), running_intervals_.end(),
      [id](const RunningInterval& r) { return r.job == id; });
  if (it != running_intervals_.end()) {
    running_intervals_.erase(it);
  }
}

void OverlapScheduler::reset() { running_intervals_.clear(); }

}  // namespace fjs
