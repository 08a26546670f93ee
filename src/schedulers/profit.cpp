#include "schedulers/profit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/assert.h"
#include "support/string_util.h"

namespace fjs {
namespace {

/// p <= k * budget, evaluated in doubles (exact for tick values below 2^53,
/// which all shipped instances respect).
bool within_factor(Time p, double k, Time budget) {
  return static_cast<double>(p.ticks()) <=
         k * static_cast<double>(budget.ticks());
}

}  // namespace

double ProfitScheduler::optimal_k() { return 1.0 + std::sqrt(2.0) / 2.0; }

ProfitScheduler::ProfitScheduler(double k) : k_(k) {
  FJS_REQUIRE(k_ > 1.0, "profit: k must be > 1");
}

std::string ProfitScheduler::name() const {
  std::ostringstream os;
  os << "profit(k=" << format_double(k_, 4) << ')';
  return os.str();
}

void ProfitScheduler::on_arrival(SchedulerContext& ctx, JobId id) {
  const Time p = ctx.length_of(id);
  const Time now = ctx.now();
  // Profitable to some running flag? (a(J) = now is inside [d(f), end(f)),
  // guaranteed because flags_ only holds flags whose completion is in the
  // future and whose start is in the past.)
  for (const FlagInfo& flag : flags_) {
    if (within_factor(p, k_, flag.end - now)) {
      ctx.start_job(id);
      return;
    }
  }
  // Not profitable to any active flag: buffer until a later flag start or
  // this job's own starting deadline.
}

void ProfitScheduler::on_deadline(SchedulerContext& ctx, JobId id) {
  const Time now = ctx.now();
  // Flag selection: among pending jobs sharing this starting deadline,
  // pick the one with the longest processing length (footnote 3).
  JobId flag_id = id;
  Time flag_p = ctx.length_of(id);
  for (const JobId job : ctx.pending()) {
    if (ctx.view(job).deadline == now && ctx.length_of(job) > flag_p) {
      flag_id = job;
      flag_p = ctx.length_of(job);
    }
  }
  ctx.start_job(flag_id);
  const FlagInfo info{.id = flag_id, .length = flag_p, .end = now + flag_p};
  flags_.push_back(info);
  flag_history_.push_back(info);
  // Start every pending job profitable to the new flag. Snapshot into the
  // member scratch (start_job mutates the view; capacity is reused so
  // warm runs don't allocate here).
  pending_scratch_ = ctx.pending();
  for (const JobId job : pending_scratch_) {
    if (within_factor(ctx.length_of(job), k_, flag_p)) {
      ctx.start_job(job);
    }
  }
}

void ProfitScheduler::on_completion(SchedulerContext& /*ctx*/, JobId id) {
  flags_.erase(std::remove_if(flags_.begin(), flags_.end(),
                              [id](const FlagInfo& f) { return f.id == id; }),
               flags_.end());
}

void ProfitScheduler::reset() {
  flags_.clear();
  flag_history_.clear();
}

}  // namespace fjs
