#include "core/interval_set.h"

#include <algorithm>
#include <sstream>

#include "support/assert.h"

namespace fjs {

IntervalSet::IntervalSet(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& iv) { return iv.empty(); });
  if (intervals.empty()) {
    return;
  }
  // Sorting by lo alone is enough: the merge below accumulates max hi, so
  // the relative order of equal-lo intervals cannot change the result.
  // Callers that maintain sorted interval lists (simulation start order,
  // the offline local-search loops) skip the sort entirely.
  const auto by_lo = [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  };
  if (!std::is_sorted(intervals.begin(), intervals.end(), by_lo)) {
    std::sort(intervals.begin(), intervals.end(), by_lo);
  }
  components_.reserve(intervals.size());
  components_.push_back(intervals.front());
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    const Interval& iv = intervals[i];
    Interval& back = components_.back();
    if (iv.lo <= back.hi) {
      back.hi = std::max(back.hi, iv.hi);
    } else {
      components_.push_back(iv);
    }
  }
}

Time IntervalSet::sorted_union_measure(const std::vector<Interval>& sorted) {
  Time total = Time::zero();
  Time run_lo;
  Time run_hi;
  bool open = false;
  for (const Interval& iv : sorted) {
    if (iv.empty()) {
      continue;
    }
    if (!open) {
      run_lo = iv.lo;
      run_hi = iv.hi;
      open = true;
      continue;
    }
    FJS_CHECK(iv.lo >= run_lo, "sorted_union_measure: input not sorted");
    if (iv.lo <= run_hi) {
      run_hi = std::max(run_hi, iv.hi);
    } else {
      total += run_hi - run_lo;
      run_lo = iv.lo;
      run_hi = iv.hi;
    }
  }
  if (open) {
    total += run_hi - run_lo;
  }
  return total;
}

void IntervalSet::replace_in_sorted(std::vector<Interval>& sorted,
                                    const Interval& old_iv,
                                    const Interval& new_iv) {
  const auto by_lo = [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  };
  auto it = std::lower_bound(sorted.begin(), sorted.end(), old_iv, by_lo);
  while (it != sorted.end() && *it != old_iv) {
    ++it;  // walk the equal-lo run to the matching instance
  }
  FJS_REQUIRE(it != sorted.end() && *it == old_iv,
              "replace_in_sorted: old interval not found");
  sorted.erase(it);
  sorted.insert(
      std::lower_bound(sorted.begin(), sorted.end(), new_iv, by_lo), new_iv);
}

void IntervalSet::add(const Interval& interval) {
  if (interval.empty()) {
    return;
  }
  // Find the first component that could touch the new interval.
  auto first = std::lower_bound(
      components_.begin(), components_.end(), interval,
      [](const Interval& c, const Interval& iv) { return c.hi < iv.lo; });
  if (first == components_.end() || !first->touches(interval)) {
    components_.insert(first, interval);
    return;
  }
  // Merge the run of touching components into one.
  auto last = first;
  Time lo = std::min(first->lo, interval.lo);
  Time hi = std::max(first->hi, interval.hi);
  ++last;
  while (last != components_.end() && last->lo <= hi) {
    hi = std::max(hi, last->hi);
    ++last;
  }
  *first = Interval(lo, hi);
  components_.erase(first + 1, last);
}

void IntervalSet::add_hint(const Interval& interval) {
  if (interval.empty()) {
    return;
  }
  if (components_.empty()) {
    components_.push_back(interval);
    return;
  }
  Interval& back = components_.back();
  if (interval.lo >= back.lo) {
    // The interval can only touch the last component: every earlier
    // component ends strictly before the last one starts.
    if (interval.lo <= back.hi) {
      back.hi = std::max(back.hi, interval.hi);
    } else {
      components_.push_back(interval);
    }
    return;
  }
  add(interval);
}

void IntervalSet::unite(const IntervalSet& other) {
  if (other.components_.empty()) {
    return;
  }
  if (components_.empty()) {
    components_ = other.components_;
    return;
  }
  std::vector<Interval> merged;
  merged.reserve(components_.size() + other.components_.size());
  auto a = components_.begin();
  auto b = other.components_.begin();
  const auto take = [&merged](const Interval& iv) {
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  };
  while (a != components_.end() && b != other.components_.end()) {
    if (a->lo <= b->lo) {
      take(*a++);
    } else {
      take(*b++);
    }
  }
  for (; a != components_.end(); ++a) {
    take(*a);
  }
  for (; b != other.components_.end(); ++b) {
    take(*b);
  }
  components_ = std::move(merged);
}

const Interval& IntervalSet::component(std::size_t i) const {
  FJS_REQUIRE(i < components_.size(), "IntervalSet: component out of range");
  return components_[i];
}

Time IntervalSet::measure() const {
  Time total = Time::zero();
  for (const auto& c : components_) {
    total += c.length();
  }
  return total;
}

bool IntervalSet::contains(Time t) const {
  auto it = std::upper_bound(
      components_.begin(), components_.end(), t,
      [](Time value, const Interval& c) { return value < c.hi; });
  return it != components_.end() && it->contains(t);
}

bool IntervalSet::intersects(const Interval& interval) const {
  if (interval.empty()) {
    return false;
  }
  auto it = std::upper_bound(
      components_.begin(), components_.end(), interval.lo,
      [](Time value, const Interval& c) { return value < c.hi; });
  return it != components_.end() && it->overlaps(interval);
}

namespace {

Time covered_measure(std::span<const Interval> components,
                     const Interval& interval) {
  if (interval.empty()) {
    return Time::zero();
  }
  Time total = Time::zero();
  auto it = std::upper_bound(
      components.begin(), components.end(), interval.lo,
      [](Time value, const Interval& c) { return value < c.hi; });
  for (; it != components.end() && it->lo < interval.hi; ++it) {
    total += it->intersect(interval).length();
  }
  return total;
}

}  // namespace

Time IntervalSet::measure_within(const Interval& interval) const {
  return covered_measure(components_, interval);
}

Time IntervalSet::uncovered_measure(const Interval& interval) const {
  return interval.length() - covered_measure(components_, interval);
}

Time IntervalSet::uncovered_measure(std::span<const Interval> components,
                                    const Interval& interval) {
  return interval.length() - covered_measure(components, interval);
}

Time IntervalSet::lower() const {
  FJS_REQUIRE(!components_.empty(), "IntervalSet::lower on empty set");
  return components_.front().lo;
}

Time IntervalSet::upper() const {
  FJS_REQUIRE(!components_.empty(), "IntervalSet::upper on empty set");
  return components_.back().hi;
}

std::vector<Interval> IntervalSet::gaps_within(const Interval& range) const {
  std::vector<Interval> gaps;
  if (range.empty()) {
    return gaps;
  }
  Time cursor = range.lo;
  for (const auto& c : components_) {
    if (c.hi <= cursor) {
      continue;
    }
    if (c.lo >= range.hi) {
      break;
    }
    if (c.lo > cursor) {
      gaps.emplace_back(cursor, std::min(c.lo, range.hi));
    }
    cursor = std::max(cursor, c.hi);
    if (cursor >= range.hi) {
      break;
    }
  }
  if (cursor < range.hi) {
    gaps.emplace_back(cursor, range.hi);
  }
  return gaps;
}

std::string IntervalSet::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << components_[i].to_string();
  }
  os << '}';
  return os.str();
}

}  // namespace fjs
