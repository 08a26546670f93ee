// The Batch+ scheduler (§3.2, Theorem 3.5).
//
// Like Batch, but more aggressive: during the flag job's active interval
// every newly arriving job is started immediately. A new iteration (and the
// buffering of arrivals) begins only when the flag job completes.
// Non-clairvoyant; tight competitive ratio μ+1.
#pragma once

#include <optional>

#include "sim/scheduler.h"

namespace fjs {

class BatchPlusScheduler final : public OnlineScheduler {
 public:
  std::string name() const override { return "batch+"; }

  void on_arrival(SchedulerContext& ctx, JobId id) override;
  void on_deadline(SchedulerContext& ctx, JobId id) override;
  void on_completion(SchedulerContext& ctx, JobId id) override;
  void reset() override;

  /// The currently running flag job, if an iteration is active.
  std::optional<JobId> active_flag() const { return flag_; }

  /// Flag job of each iteration, in order — the analysis objects of
  /// Theorem 3.5's proof. Valid after a run.
  const std::vector<JobId>& flag_history() const { return flag_history_; }

 private:
  std::optional<JobId> flag_;
  std::vector<JobId> flag_history_;
  std::vector<JobId> batch_scratch_;  ///< reusable pending-set snapshot
};

}  // namespace fjs
