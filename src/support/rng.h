// Deterministic, splittable pseudo-random number generation for workload
// synthesis and randomized property tests.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64.
// Rationale: std::mt19937 state is large and its seeding across std library
// implementations is easy to get subtly wrong for reproducibility; a small,
// well-specified generator makes every instance in the repo reproducible
// from a single 64-bit seed, including across platforms.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace fjs {

/// xoshiro256** generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it can also be used with
/// <random> distributions, but the built-in helpers below are preferred:
/// they are exactly reproducible across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64 random bits.
  std::uint64_t operator()();

  /// Derives an independent child generator; the parent advances once.
  /// Used to give each parallel sweep task its own stream.
  Rng split();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi). Requires lo < hi.
  double uniform_real(double lo, double hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Exponential variate with the given rate (mean 1/rate). rate > 0.
  double exponential(double rate);

  /// Standard normal variate (Box–Muller, stateless variant).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal variate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Pareto variate with scale x_m > 0 and shape alpha > 0, truncated to
  /// [x_m, cap]. Used for heavy-tailed job lengths.
  double pareto_truncated(double x_m, double alpha, double cap);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace fjs
