#include "schedulers/batch_plus.h"

#include <vector>

#include "support/assert.h"

namespace fjs {

void BatchPlusScheduler::on_arrival(SchedulerContext& ctx, JobId id) {
  if (flag_.has_value()) {
    // Inside the flag's active interval: start immediately.
    ctx.start_job(id);
  }
  // Otherwise buffer until the next flag job is designated.
}

void BatchPlusScheduler::on_deadline(SchedulerContext& ctx, JobId id) {
  // Invariant: during a flag's active interval the pending set is empty
  // (everything pending was started at the flag's start; later arrivals
  // start immediately), so no deadline event can fire then.
  FJS_CHECK(!flag_.has_value(), "batch+: deadline during an active iteration");
  flag_ = id;
  flag_history_.push_back(id);
  // Snapshot: start_job mutates the pending view mid-iteration. The
  // member scratch keeps its capacity, so warm runs don't allocate here.
  batch_scratch_ = ctx.pending();
  for (const JobId job : batch_scratch_) {
    ctx.start_job(job);
  }
}

void BatchPlusScheduler::on_completion(SchedulerContext& /*ctx*/, JobId id) {
  if (flag_.has_value() && *flag_ == id) {
    flag_.reset();  // iteration over; buffer future arrivals
  }
}

void BatchPlusScheduler::reset() {
  flag_.reset();
  flag_history_.clear();
}

}  // namespace fjs
