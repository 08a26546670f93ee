// The Batch scheduler (§3.2, Theorem 3.4).
//
// Works in iterations: wait until some pending job hits its starting
// deadline (the iteration's "flag job"), then start ALL pending jobs at
// that instant, and go back to waiting. Non-clairvoyant;
// competitive ratio between 2μ and 2μ+1.
#pragma once

#include "sim/scheduler.h"

namespace fjs {

class BatchScheduler final : public OnlineScheduler {
 public:
  std::string name() const override { return "batch"; }

  void on_arrival(SchedulerContext& ctx, JobId id) override;
  void on_deadline(SchedulerContext& ctx, JobId id) override;
  void reset() override { flag_history_.clear(); }

  /// Flag job of each iteration, in order — the analysis objects of
  /// Theorem 3.4's proof. Valid after a run.
  const std::vector<JobId>& flag_history() const { return flag_history_; }

 private:
  std::vector<JobId> flag_history_;
};

}  // namespace fjs
