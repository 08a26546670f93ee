// The Profit scheduler (§4.3, Theorem 4.11).
//
// Clairvoyant. Works in (possibly overlapping) iterations. When a pending
// job hits its starting deadline it becomes the iteration's flag job
// (ties broken by longest processing length) and starts. A job J is
// "profitable" to flag f — guaranteeing ≥ 1/k of J's active interval
// overlaps f's — iff
//   * J was pending at d(f) and p(J) <= k·p(f)          (started at d(f)), or
//   * J arrives during f's run and p(J) <= k·(end(f) − a(J))
//                                                       (started at a(J)).
// With k = 1 + √2/2 the competitive ratio is 2k + 2 + 1/(k−1) = 4 + 2√2.
#pragma once

#include <vector>

#include "sim/scheduler.h"

namespace fjs {

class ProfitScheduler final : public OnlineScheduler {
 public:
  /// Optimal k from Theorem 4.11.
  static double optimal_k();

  explicit ProfitScheduler(double k = optimal_k());

  std::string name() const override;
  bool requires_clairvoyance() const override { return true; }

  void on_arrival(SchedulerContext& ctx, JobId id) override;
  void on_deadline(SchedulerContext& ctx, JobId id) override;
  void on_completion(SchedulerContext& ctx, JobId id) override;
  void reset() override;

  double k() const { return k_; }

  /// Flags whose active intervals contain the current time.
  std::size_t active_flag_count() const { return flags_.size(); }

  struct FlagInfo {
    JobId id;
    Time length;
    Time end;  ///< d(f) + p(f): completion of the flag.
  };

  /// All flag jobs in designation (= starting-deadline) order — the
  /// analysis objects of Lemmas 4.5–4.10. Valid after a run.
  const std::vector<FlagInfo>& flag_history() const { return flag_history_; }

 private:
  double k_;
  std::vector<FlagInfo> flags_;
  std::vector<FlagInfo> flag_history_;
  std::vector<JobId> pending_scratch_;  ///< reusable pending-set snapshot
};

}  // namespace fjs
