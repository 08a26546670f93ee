#include "schedulers/classify_by_duration.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "support/assert.h"
#include "support/string_util.h"

namespace fjs {

double CdbScheduler::optimal_alpha() { return 1.0 + std::sqrt(2.0 / 3.0); }

CdbScheduler::CdbScheduler(double alpha, Time base)
    : alpha_(alpha), base_(base) {
  FJS_REQUIRE(alpha_ > 1.0, "CDB: alpha must be > 1");
  FJS_REQUIRE(base_ > Time::zero(), "CDB: base must be positive");
}

std::string CdbScheduler::name() const {
  std::ostringstream os;
  os << "cdb(alpha=" << format_double(alpha_, 4) << ')';
  return os.str();
}

long CdbScheduler::category_of(Time length) const {
  FJS_REQUIRE(length > Time::zero(), "CDB: non-positive length");
  // Smallest integer i with p <= b * alpha^i. Computed in log space with a
  // tolerance so that p exactly on a boundary lands in the lower category
  // (the paper's intervals are half-open at the bottom, closed at the top).
  const double ratio = static_cast<double>(length.ticks()) /
                       static_cast<double>(base_.ticks());
  const double exact = std::log(ratio) / std::log(alpha_);
  const double kBoundaryTolerance = 1e-9;
  return static_cast<long>(std::ceil(exact - kBoundaryTolerance));
}

bool CdbScheduler::category_active(long cat) const {
  const auto it = std::lower_bound(
      active_flags_.begin(), active_flags_.end(), cat,
      [](const std::pair<long, JobId>& e, long c) { return e.first < c; });
  return it != active_flags_.end() && it->first == cat;
}

void CdbScheduler::on_arrival(SchedulerContext& ctx, JobId id) {
  const long cat = category_of(ctx.length_of(id));
  if (category_active(cat)) {
    // The category's flag is running: Batch+ starts arrivals immediately.
    ctx.start_job(id);
  }
  // Otherwise buffer within the category.
}

void CdbScheduler::on_deadline(SchedulerContext& ctx, JobId id) {
  const long cat = category_of(ctx.length_of(id));
  FJS_CHECK(!category_active(cat),
            "cdb: deadline inside the category's active iteration");
  const auto pos = std::lower_bound(
      active_flags_.begin(), active_flags_.end(), cat,
      [](const std::pair<long, JobId>& e, long c) { return e.first < c; });
  active_flags_.insert(pos, {cat, id});
  flag_history_.push_back(FlagRecord{cat, id});
  // Start all pending jobs OF THIS CATEGORY (the flag is among them).
  const std::vector<JobId> pending = ctx.pending();
  for (const JobId job : pending) {
    if (category_of(ctx.length_of(job)) == cat) {
      ctx.start_job(job);
    }
  }
}

void CdbScheduler::on_completion(SchedulerContext& /*ctx*/, JobId id) {
  const auto it = std::find_if(
      active_flags_.begin(), active_flags_.end(),
      [id](const std::pair<long, JobId>& e) { return e.second == id; });
  if (it != active_flags_.end()) {
    active_flags_.erase(it);
  }
}

void CdbScheduler::reset() {
  active_flags_.clear();
  flag_history_.clear();
}

}  // namespace fjs
