// Kernels shared by the lower bounds (lower_bound.cpp) and the exact
// solver (exact.cpp). Internal to the offline module.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "core/job_table.h"
#include "core/time.h"

namespace fjs::detail {

/// Sorts `v` by `less`, by insertion up to 32 elements: at the sizes the
/// offline solvers sort per call, std::sort's introsort machinery costs
/// more than the sort itself. Callers pass strict total orders (or feed an
/// order-independent reduction), so the result is std::sort's.
template <typename T, typename Less = std::less<>>
void sort_small(std::vector<T>& v, Less less = {}) {
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

/// The heaviest chain's weight, plus the window [lo, hi) every member's
/// occupancy provably lies in: lo = the first member's arrival, hi = the
/// last member's deadline + length (the chain condition d(I) + p(I) <= a(J)
/// nests all earlier windows inside it).
struct Chain {
  Time weight = Time::zero();
  Time lo = Time::zero();
  Time hi = Time::zero();
};

/// One entry of the chain DP's Pareto frontier.
struct ChainFrontier {
  Time key;     // chain completion bound d(I) + p(I)
  Time weight;  // best chain weight ending by key
  Time lo;      // that chain's earliest arrival
};

/// Heaviest disjointness chain over the jobs of `by_arrival` (ids in
/// (arrival, id) order) for which keep(id) holds. Along a chain with
/// d(I) + p(I) <= a(J) the active intervals are pairwise disjoint under
/// every schedule, so its weight lower-bounds the span.
///
///   f(J) = p(J) + max{ f(I) : d(I) + p(I) <= a(J) }
///
/// `frontier` maps the completion key d+p to the best chain weight with
/// that key or less, keys and weights jointly increasing: a flat sorted
/// vector searched by bisection, whose memmoves cost less than a
/// node-based map's allocation and pointer chasing.
template <typename Keep>
Chain heaviest_chain(InstanceView view, std::span<const JobId> by_arrival,
                     Keep keep, std::vector<ChainFrontier>& frontier) {
  frontier.clear();
  Chain best;
  const std::span<const Time> arrivals = view.arrivals();
  const std::span<const Time> deadlines = view.deadlines();
  const std::span<const Time> lengths = view.lengths();
  // First entry at or after `from` whose key exceeds `key`.
  const auto after = [&frontier](auto from, Time key) {
    return std::partition_point(
        from, frontier.end(),
        [key](const ChainFrontier& e) { return e.key <= key; });
  };
  for (const JobId id : by_arrival) {
    if (!keep(id)) {
      continue;
    }
    const Time arrival = arrivals[id];
    auto it = after(frontier.begin(), arrival);
    Time prefix = Time::zero();
    Time lo = arrival;
    if (it != frontier.begin()) {
      prefix = std::prev(it)->weight;
      if (prefix > Time::zero()) {
        lo = std::prev(it)->lo;
      }
    }
    // Both checked_adds are provably in range under the Instance d+p
    // invariant: the chain condition d(I)+p(I) <= a(J) bounds every
    // predecessor weight f(I) by a(J), so f(J) = f(I)+p(J) <= a(J)+p(J)
    // <= d(J)+p(J) <= max; the key is d+p <= max directly.
    const Time f = prefix.checked_add(lengths[id]);
    const Time key = deadlines[id].checked_add(lengths[id]);
    if (f > best.weight) {
      best = Chain{f, lo, key};
    }
    it = after(it, key);
    if (it != frontier.begin() && std::prev(it)->weight >= f) {
      continue;  // dominated by an earlier-or-equal key with >= weight
    }
    if (it != frontier.begin() && std::prev(it)->key == key) {
      --it;
      *it = ChainFrontier{key, f, lo};  // same key, strictly better weight
    } else {
      it = frontier.insert(it, ChainFrontier{key, f, lo});
    }
    // Later keys the new entry dominates form a contiguous run.
    auto last = std::next(it);
    while (last != frontier.end() && last->weight <= f) {
      ++last;
    }
    frontier.erase(std::next(it), last);
  }
  return best;
}

}  // namespace fjs::detail
