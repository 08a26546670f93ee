#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/assert.h"

namespace fjs {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double Accumulator::mean() const {
  FJS_REQUIRE(count_ > 0, "mean of empty accumulator");
  return mean_;
}

double Accumulator::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
  FJS_REQUIRE(count_ > 0, "min of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  FJS_REQUIRE(count_ > 0, "max of empty accumulator");
  return max_;
}

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_) {
    auto& mut = const_cast<std::vector<double>&>(samples_);
    std::sort(mut.begin(), mut.end());
    const_cast<bool&>(sorted_) = true;
  }
}

double Summary::mean() const {
  FJS_REQUIRE(!samples_.empty(), "mean of empty summary");
  double s = 0.0;
  for (const double x : samples_) {
    s += x;
  }
  return s / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double m = mean();
  double s = 0.0;
  for (const double x : samples_) {
    s += (x - m) * (x - m);
  }
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

double Summary::min() const {
  FJS_REQUIRE(!samples_.empty(), "min of empty summary");
  ensure_sorted();
  return samples_.front();
}

double Summary::max() const {
  FJS_REQUIRE(!samples_.empty(), "max of empty summary");
  ensure_sorted();
  return samples_.back();
}

double Summary::percentile(double q) const {
  FJS_REQUIRE(!samples_.empty(), "percentile of empty summary");
  FJS_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q outside [0,100]");
  ensure_sorted();
  if (samples_.size() == 1) {
    return samples_[0];
  }
  const double rank = q / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::string Summary::to_string() const {
  std::ostringstream os;
  if (empty()) {
    return "n=0";
  }
  os.precision(4);
  os << "n=" << count() << " mean=" << mean() << " p50=" << median()
     << " p99=" << percentile(99.0) << " max=" << max();
  return os.str();
}

}  // namespace fjs
