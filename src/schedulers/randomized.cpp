#include "schedulers/randomized.h"

#include "support/assert.h"

namespace fjs {

RandomizedScheduler::RandomizedScheduler(std::uint64_t seed)
    : seed_(seed), rng_(seed) {}

void RandomizedScheduler::on_arrival(SchedulerContext& ctx, JobId id) {
  const JobView view = ctx.view(id);
  const Time laxity = view.laxity();
  if (laxity == Time::zero()) {
    ctx.start_job(id);
    return;
  }
  // Inclusive draw over every tick of [a(J), d(J)]. offset <= laxity, so
  // arrival + offset <= d(J) for any tick granularity — the sampled start
  // can never land past the starting deadline.
  const Time offset(rng_.uniform_int(0, laxity.ticks()));
  if (offset == Time::zero()) {
    ctx.start_job(id);
  } else {
    const Time when = ctx.now() + offset;
    FJS_CHECK(when <= view.deadline,
              "random: sampled start past the starting deadline");
    ctx.set_timer(when, id);
  }
}

void RandomizedScheduler::on_deadline(SchedulerContext& ctx, JobId id) {
  // Fires before a timer set at exactly d(J) (deadline events outrank
  // timers at the same tick), so the offset == laxity draw is realized
  // here and the timer below must tolerate the job already running.
  ctx.start_job(id);
}

void RandomizedScheduler::on_timer(SchedulerContext& ctx, std::uint64_t tag) {
  const auto id = static_cast<JobId>(tag);
  // The job may have been force-started by on_deadline at this same event
  // time (offset == laxity); O(1) state check instead of scanning pending().
  if (ctx.is_pending(id)) {
    ctx.start_job(id);
  }
}

void RandomizedScheduler::reset() { rng_ = Rng(seed_); }

}  // namespace fjs
