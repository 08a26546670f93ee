// Randomized-start baseline: each job starts at a uniformly random point
// of its start window.
//
// The paper's lower bounds (Thms 3.3 and 4.1) are stated for deterministic
// schedulers; this seeded baseline shows empirically that naive
// randomization does not buy a better ratio — it interpolates between
// Eager and Lazy and inherits both failure modes.
#pragma once

#include <cstdint>

#include "sim/scheduler.h"
#include "support/rng.h"

namespace fjs {

class RandomizedScheduler final : public OnlineScheduler {
 public:
  explicit RandomizedScheduler(std::uint64_t seed = 0xF1A6'0001ULL);

  std::string name() const override { return "random"; }

  void on_arrival(SchedulerContext& ctx, JobId id) override;
  void on_deadline(SchedulerContext& ctx, JobId id) override;
  void on_timer(SchedulerContext& ctx, std::uint64_t tag) override;
  void reset() override;

 private:
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace fjs
