#include "offline/lower_bound.h"

#include <algorithm>
#include <vector>

#include "core/interval_set.h"
#include "offline/kernels.h"
#include "support/assert.h"

namespace fjs {

Time mandatory_lower_bound(InstanceView view) {
  // Union measure over the mandatory regions without materializing an
  // IntervalSet: collect, sort by left endpoint, one linear pass. The
  // scratch is thread-local so the miner's per-candidate calls stop
  // allocating.
  thread_local std::vector<Interval> mandatory;
  mandatory.clear();
  const std::size_t n = view.size();
  for (JobId id = 0; id < n; ++id) {
    // Every placement of J covers [d(J), a(J)+p(J)) (empty if laxity >= p).
    // Saturating: a <= d gives a+p <= d+p <= max under the Instance
    // invariant, but this bound also serves raw job lists in tests and
    // tools, so clamp instead of relying on the caller.
    const Interval mand(view.deadline(id),
                        view.arrival(id).saturating_add(view.length(id)));
    if (!mand.empty()) {
      mandatory.push_back(mand);
    }
  }
  detail::sort_small(mandatory, [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  });
  return IntervalSet::sorted_union_measure(mandatory);
}

Time chain_lower_bound(InstanceView view) {
  if (view.empty()) {
    return Time::zero();
  }
  thread_local std::vector<detail::ChainFrontier> frontier;
  thread_local std::vector<JobId> order;
  view.ids_by_arrival(order);
  return detail::heaviest_chain(
             view, order, [](JobId) { return true; }, frontier)
      .weight;
}

Time max_length_lower_bound(InstanceView view) {
  if (view.empty()) {
    return Time::zero();
  }
  return view.max_length();
}

Time best_lower_bound(InstanceView view) {
  if (view.empty()) {
    return Time::zero();
  }
  return std::max({mandatory_lower_bound(view), chain_lower_bound(view),
                   max_length_lower_bound(view)});
}

}  // namespace fjs
