// Doubler-style scheduler — a RECONSTRUCTION of the comparator mentioned in
// the paper's concluding remarks (Koehler & Khuller, WADS'17, 5-competitive
// for the unbounded-capacity case, which equals Clairvoyant FJS).
//
// The SPAA'17 paper cites Doubler without pseudocode; this class implements
// the natural "budget-doubling" reading: when a pending job hits its
// starting deadline it starts (flag) and opens a window of twice its length;
// pending jobs no longer than twice the flag start with it, and arrivals
// that can COMPLETE inside the window start immediately. Treat measured
// numbers as "Doubler-style heuristic", not the published algorithm.
#pragma once

#include <vector>

#include "sim/scheduler.h"

namespace fjs {

class DoublerScheduler final : public OnlineScheduler {
 public:
  std::string name() const override { return "doubler*"; }
  bool requires_clairvoyance() const override { return true; }

  void on_arrival(SchedulerContext& ctx, JobId id) override;
  void on_deadline(SchedulerContext& ctx, JobId id) override;
  void reset() override;

 private:
  struct Window {
    JobId flag;
    Time close;  ///< start(flag) + 2·p(flag)
  };

  /// Drops windows that have closed.
  void expire(Time now);

  std::vector<Window> windows_;
};

}  // namespace fjs
