#include "schedulers/batch.h"

#include <vector>

namespace fjs {

void BatchScheduler::on_arrival(SchedulerContext& /*ctx*/, JobId /*id*/) {
  // Buffer; jobs start only when an iteration fires.
}

void BatchScheduler::on_deadline(SchedulerContext& ctx, JobId id) {
  // The deadline-hitting job is the flag job; start the whole batch
  // (including the flag, which is itself pending).
  flag_history_.push_back(id);
  const std::vector<JobId> batch = ctx.pending();
  for (const JobId job : batch) {
    ctx.start_job(job);
  }
}

}  // namespace fjs
