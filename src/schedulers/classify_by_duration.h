// Classify-by-Duration Batch+ (§4.2, Theorem 4.4).
//
// Clairvoyant. Jobs are classified by processing length into geometric
// categories (b·α^(i-1), b·α^i]; each category runs its own independent
// Batch+ scheduler. With α = 1 + √(2/3) the competitive ratio is
// 3α + 4 + 2/(α−1) = 7 + 2√6 ≈ 11.9.
#pragma once

#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace fjs {

class CdbScheduler final : public OnlineScheduler {
 public:
  /// Optimal α from Theorem 4.4.
  static double optimal_alpha();

  /// `alpha` > 1 is the per-category max/min length ratio; `base` > 0 is
  /// the category boundary anchor b (category i covers (b·α^(i-1), b·α^i]).
  explicit CdbScheduler(double alpha = optimal_alpha(),
                        Time base = Time(Time::kTicksPerUnit));

  std::string name() const override;
  bool requires_clairvoyance() const override { return true; }

  void on_arrival(SchedulerContext& ctx, JobId id) override;
  void on_deadline(SchedulerContext& ctx, JobId id) override;
  void on_completion(SchedulerContext& ctx, JobId id) override;
  void reset() override;

  double alpha() const { return alpha_; }

  /// Category index of a processing length: the integer i such that
  /// p ∈ (b·α^(i-1), b·α^i].
  long category_of(Time length) const;

  struct FlagRecord {
    long category;
    JobId id;
  };

  /// Flag jobs of every per-category Batch+ iteration, in designation
  /// order — the analysis objects of Lemma 4.2. Valid after a run.
  const std::vector<FlagRecord>& flag_history() const {
    return flag_history_;
  }

 private:
  /// True iff `cat` has an active flag; O(log n) over the flat vector.
  bool category_active(long cat) const;

  double alpha_;
  Time base_;
  /// Per-category active flag job, as a flat vector sorted by category
  /// (absent = the category is buffering). Few categories are ever live
  /// at once, so a sorted vector beats two node-based maps — completions
  /// find their entry by a linear id scan, which also removes the old
  /// reverse map entirely.
  std::vector<std::pair<long, JobId>> active_flags_;
  std::vector<FlagRecord> flag_history_;
};

}  // namespace fjs
