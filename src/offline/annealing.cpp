#include "offline/annealing.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/interval_set.h"
#include "support/assert.h"
#include "support/rng.h"

namespace fjs {
namespace {

Time clamp_time(Time value, Time lo, Time hi) {
  return std::max(lo, std::min(value, hi));
}

}  // namespace

AnnealingResult anneal_schedule(const Instance& instance,
                                AnnealingOptions options) {
  FJS_REQUIRE(options.cooling > 0.0 && options.cooling < 1.0,
              "annealing: cooling in (0,1)");
  FJS_REQUIRE(options.cooling_period > 0, "annealing: bad cooling period");
  if (instance.empty()) {
    return AnnealingResult{.span = Time::zero(), .schedule = Schedule(0),
                           .accepted = 0};
  }

  Rng rng(options.seed);
  std::vector<Time> starts(instance.size());
  for (JobId id = 0; id < instance.size(); ++id) {
    starts[id] = instance.job(id).deadline;
  }
  // Each job's active interval, plus the same intervals sorted by left
  // endpoint. A move replaces one interval in the sorted list (two
  // memmoves), so every span evaluation is a single linear pass with no
  // allocation — this loop runs once per annealing iteration.
  std::vector<Interval> intervals(instance.size());
  std::vector<Interval> sorted;
  sorted.reserve(instance.size());
  for (JobId id = 0; id < instance.size(); ++id) {
    intervals[id] = instance.job(id).active_interval(starts[id]);
    sorted.push_back(intervals[id]);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  Time current = IntervalSet::sorted_union_measure(sorted);
  Time best = current;
  std::vector<Time> best_starts = starts;

  double temperature =
      options.initial_temperature * static_cast<double>(current.ticks());
  temperature = std::max(temperature, 1.0);

  AnnealingResult result;
  for (std::size_t iter = 0; iter < options.iterations; ++iter) {
    const auto id = static_cast<JobId>(rng.uniform_int(
        0, static_cast<std::int64_t>(instance.size()) - 1));
    const Job& job = instance.job(id);
    if (job.laxity() == Time::zero()) {
      continue;  // nothing to move
    }

    Time proposal;
    if (rng.bernoulli(options.alignment_move_probability)) {
      // Alignment move: snap one end of this job's interval to another
      // job's current interval endpoint.
      const auto other = static_cast<JobId>(rng.uniform_int(
          0, static_cast<std::int64_t>(instance.size()) - 1));
      const Interval iv = instance.job(other).active_interval(starts[other]);
      const Time anchor = rng.bernoulli(0.5) ? iv.lo : iv.hi;
      proposal = rng.bernoulli(0.5) ? anchor : anchor - job.length;
    } else {
      proposal = Time(rng.uniform_int(job.arrival.ticks(),
                                      job.deadline.ticks()));
    }
    proposal = clamp_time(proposal, job.arrival, job.deadline);
    if (proposal == starts[id]) {
      continue;
    }

    const Time saved = starts[id];
    const Interval old_iv = intervals[id];
    const Interval new_iv = job.active_interval(proposal);
    starts[id] = proposal;
    intervals[id] = new_iv;
    IntervalSet::replace_in_sorted(sorted, old_iv, new_iv);
    const Time candidate = IntervalSet::sorted_union_measure(sorted);
    const double delta =
        static_cast<double>((candidate - current).ticks());
    const bool accept =
        delta <= 0.0 || rng.uniform01() < std::exp(-delta / temperature);
    if (accept) {
      current = candidate;
      ++result.accepted;
      if (current < best) {
        best = current;
        best_starts = starts;
      }
    } else {
      starts[id] = saved;
      intervals[id] = old_iv;
      IntervalSet::replace_in_sorted(sorted, new_iv, old_iv);
    }
    if ((iter + 1) % options.cooling_period == 0) {
      temperature = std::max(temperature * options.cooling, 1.0);
    }
  }

  result.span = best;
  result.schedule = Schedule::from_starts(best_starts);
  result.schedule.validate(instance);
  FJS_CHECK(result.schedule.span(instance) == best,
            "annealing: span mismatch on reconstruction");
  return result;
}

}  // namespace fjs
