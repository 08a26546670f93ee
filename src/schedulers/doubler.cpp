#include "schedulers/doubler.h"

#include <algorithm>

namespace fjs {

void DoublerScheduler::expire(Time now) {
  windows_.erase(std::remove_if(windows_.begin(), windows_.end(),
                                [now](const Window& w) {
                                  return w.close <= now;
                                }),
                 windows_.end());
}

void DoublerScheduler::on_arrival(SchedulerContext& ctx, JobId id) {
  expire(ctx.now());
  // Saturating: a completion past Time::max() fits in no window, which is
  // exactly what the clamped value (never <= a window close) expresses.
  const Time completion = ctx.now().saturating_add(ctx.length_of(id));
  for (const Window& w : windows_) {
    if (completion <= w.close && completion < Time::max()) {
      ctx.start_job(id);
      return;
    }
  }
}

void DoublerScheduler::on_deadline(SchedulerContext& ctx, JobId id) {
  const Time now = ctx.now();
  expire(now);
  // Ties at the same starting deadline: longest job becomes the flag, like
  // Profit, so the window is as wide as possible.
  JobId flag = id;
  Time flag_p = ctx.length_of(id);
  for (const JobId job : ctx.pending()) {
    if (ctx.view(job).deadline == now && ctx.length_of(job) > flag_p) {
      flag = job;
      flag_p = ctx.length_of(job);
    }
  }
  ctx.start_job(flag);
  // Saturating arithmetic: 2·p(flag) can exceed Time::max() for adversarial
  // lengths, and wrapping negative here once made the window close before it
  // opened — leaving same-deadline jobs unstarted past their starting
  // deadline (found by fuzzing). A saturated close just means "the window
  // never closes", which is the right reading.
  const Time budget = flag_p.saturating_mul(2);
  const Time close = now.saturating_add(budget);
  windows_.push_back(Window{.flag = flag, .close = close});
  const std::vector<JobId> pending = ctx.pending();
  for (const JobId job : pending) {
    if (ctx.length_of(job) <= budget) {
      ctx.start_job(job);
    }
  }
}

void DoublerScheduler::reset() { windows_.clear(); }

}  // namespace fjs
