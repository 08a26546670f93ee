// Small descriptive-statistics toolkit used by the analysis harness and
// benches to aggregate measured spans and competitive ratios.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fjs {

/// Streaming accumulator for count/mean/variance/min/max (Welford).
class Accumulator {
 public:
  void add(double x);

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const Accumulator& other);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Full-sample summary with percentiles. Keeps the samples.
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Linear-interpolation percentile, q in [0, 100]. Requires samples.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

  /// One-line human-readable rendering: "n=.. mean=.. p50=.. p99=.. max=..".
  std::string to_string() const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace fjs
