#include "core/job_table.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace fjs {

double InstanceView::mu() const {
  FJS_REQUIRE(!empty(), "mu of empty instance");
  return time_ratio(max_length(), min_length());
}

Time InstanceView::min_length() const {
  FJS_REQUIRE(!empty(), "min_length of empty instance");
  return *std::min_element(lengths_.begin(), lengths_.end());
}

Time InstanceView::max_length() const {
  FJS_REQUIRE(!empty(), "max_length of empty instance");
  return *std::max_element(lengths_.begin(), lengths_.end());
}

Time InstanceView::total_work() const {
  Time total = Time::zero();
  for (const Time p : lengths_) {
    total = total.checked_add(p);
  }
  return total;
}

Time InstanceView::total_work_saturating(bool* overflowed) const {
  // Lengths are positive in a validated table, so the running sum only
  // ever clips at Time::max().
  bool clipped = false;
  Time total = Time::zero();
  for (const Time p : lengths_) {
    if (total > Time::max() - p) {
      clipped = true;
      total = Time::max();
    } else {
      total = total + p;
    }
  }
  if (overflowed != nullptr) {
    *overflowed = clipped;
  }
  return total;
}

Time InstanceView::earliest_arrival() const {
  FJS_REQUIRE(!empty(), "earliest_arrival of empty instance");
  return *std::min_element(arrivals_.begin(), arrivals_.end());
}

Time InstanceView::latest_completion() const {
  FJS_REQUIRE(!empty(), "latest_completion of empty instance");
  Time m = Time::min();
  for (std::size_t i = 0; i < deadlines_.size(); ++i) {
    m = std::max(m, deadlines_[i].checked_add(lengths_[i]));
  }
  return m;
}

namespace {

/// Fills `out` with 0..n-1 ordered by (key, id).
void sort_ids_by_key(std::span<const Time> keys, std::vector<JobId>& out) {
  out.resize(keys.size());
  std::iota(out.begin(), out.end(), JobId{0});
  std::sort(out.begin(), out.end(), [keys](JobId x, JobId y) {
    return keys[x] != keys[y] ? keys[x] < keys[y] : x < y;
  });
}

}  // namespace

void InstanceView::ids_by_arrival(std::vector<JobId>& out) const {
  sort_ids_by_key(arrivals_, out);
}

void InstanceView::ids_by_deadline(std::vector<JobId>& out) const {
  sort_ids_by_key(deadlines_, out);
}

std::vector<JobId> InstanceView::ids_by_arrival() const {
  std::vector<JobId> ids;
  ids_by_arrival(ids);
  return ids;
}

std::vector<JobId> InstanceView::ids_by_deadline() const {
  std::vector<JobId> ids;
  ids_by_deadline(ids);
  return ids;
}

bool InstanceView::sorted_by_arrival() const {
  return std::is_sorted(arrivals_.begin(), arrivals_.end());
}

bool InstanceView::is_multiple_of(Time quantum) const {
  FJS_REQUIRE(quantum > Time::zero(), "is_multiple_of: quantum must be > 0");
  const std::int64_t q = quantum.ticks();
  for (std::size_t i = 0; i < size(); ++i) {
    if (arrivals_[i].ticks() % q != 0 || deadlines_[i].ticks() % q != 0 ||
        lengths_[i].ticks() % q != 0) {
      return false;
    }
  }
  return true;
}

void InstanceView::validate() const {
  for (std::size_t i = 0; i < size(); ++i) {
    const Job j = job(static_cast<JobId>(i));
    FJS_REQUIRE(j.valid(), "Instance: invalid job " + j.to_string());
    // d + p must be representable: a job may legally start at its
    // starting deadline, so its completion reaches d + p. Enforcing this
    // here makes latest_completion() and the engine's completion pushes
    // provably overflow-free (length > 0 keeps max() - length safe).
    FJS_REQUIRE(j.deadline <= Time::max() - j.length,
                "Instance: job " + j.to_string() +
                    " has deadline + length past Time::max()");
  }
}

std::string InstanceView::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < size(); ++i) {
    os << job(static_cast<JobId>(i)).to_string() << '\n';
  }
  return os.str();
}

JobTable::JobTable(const std::vector<Job>& jobs) {
  reserve(jobs.size());
  for (const Job& j : jobs) {
    push_back(j);
  }
}

JobTable::JobTable(InstanceView view)
    : arrival_(view.arrivals().begin(), view.arrivals().end()),
      deadline_(view.deadlines().begin(), view.deadlines().end()),
      length_(view.lengths().begin(), view.lengths().end()) {}

}  // namespace fjs
