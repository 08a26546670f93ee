#include "offline/lower_bound.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/interval_set.h"
#include "support/assert.h"

namespace fjs {
namespace {

/// Insertion sort fallback for the tiny inputs these bounds see in the
/// miner's inner loop; std::sort beyond 32 elements. All comparators used
/// here are total orders or feed order-independent reductions, so the
/// results are identical either way.
template <typename T, typename Less>
void sort_small(std::vector<T>& v, Less less) {
  if (v.size() > 32) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  for (std::size_t i = 1; i < v.size(); ++i) {
    const T val = v[i];
    std::size_t j = i;
    while (j > 0 && less(val, v[j - 1])) {
      v[j] = v[j - 1];
      --j;
    }
    v[j] = val;
  }
}

}  // namespace

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
  sort_small(mandatory,
             [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  return IntervalSet::sorted_union_measure(mandatory);
}

Time chain_lower_bound(InstanceView view) {
  if (view.empty()) {
    return Time::zero();
  }
  // f(J) = best chain weight ending at J
  //      = p(J) + max{ f(I) : d(I) + p(I) <= a(J) }.
  // Process jobs in arrival order; maintain a Pareto front from
  // latest-completion key (d+p) to the best chain weight achievable with
  // that key or less, keeping keys and values jointly increasing. A flat
  // sorted vector: at lower-bound sizes the node-based map's allocation
  // and pointer chasing cost more than the memmoves.
  thread_local std::vector<std::pair<Time, Time>> pareto;
  pareto.clear();
  const auto by_key = [](const std::pair<Time, Time>& e, Time key) {
    return e.first <= key;  // partition point = first entry with key' > key
  };
  auto query = [&](Time key) {
    const auto it =
        std::partition_point(pareto.begin(), pareto.end(),
                             [&](const std::pair<Time, Time>& e) {
                               return by_key(e, key);
                             });
    return it == pareto.begin() ? Time::zero() : std::prev(it)->second;
  };
  auto insert = [&](Time key, Time value) {
    auto it =
        std::partition_point(pareto.begin(), pareto.end(),
                             [&](const std::pair<Time, Time>& e) {
                               return by_key(e, key);
                             });
    if (it != pareto.begin() && std::prev(it)->second >= value) {
      return;  // dominated by an earlier-or-equal key with >= value
    }
    if (it != pareto.begin() && std::prev(it)->first == key) {
      std::prev(it)->second = value;  // same key, strictly better weight
      --it;
    } else {
      it = pareto.insert(it, {key, value});
    }
    // Remove later keys that are now dominated (a contiguous run).
    auto last = std::next(it);
    while (last != pareto.end() && last->second <= value) {
      ++last;
    }
    pareto.erase(std::next(it), last);
  };

  thread_local std::vector<JobId> order;
  view.ids_by_arrival(order);

  Time best = Time::zero();
  for (const JobId id : order) {
    // Both checked_adds are provably in range under the Instance d+p
    // invariant: the chain condition d(I)+p(I) <= a(J) bounds every
    // predecessor weight f(I) by a(J), so f(J) = f(I)+p(J) <= a(J)+p(J)
    // <= d(J)+p(J) <= max; the insert key is d+p <= max directly.
    const Time length = view.length(id);
    const Time f = query(view.arrival(id)).checked_add(length);
    best = std::max(best, f);
    insert(view.deadline(id).checked_add(length), f);
  }
  return best;
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
