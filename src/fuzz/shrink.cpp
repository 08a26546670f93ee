#include "fuzz/shrink.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "support/assert.h"

namespace fjs {
namespace {

constexpr std::int64_t kUnit = Time::kTicksPerUnit;
constexpr std::int64_t kMaxTicks = std::numeric_limits<std::int64_t>::max();
// The shrink budget: full rounds, and predicate calls across all rounds.
constexpr std::size_t kMaxRounds = 64;
constexpr std::size_t kMaxPredicateCalls = 50'000;

struct RawJob {
  std::int64_t arrival;
  std::int64_t deadline;
  std::int64_t length;

  bool operator==(const RawJob&) const = default;
};

std::vector<RawJob> to_raw(const Instance& instance) {
  std::vector<RawJob> raw;
  raw.reserve(instance.size());
  const InstanceView view = instance.view();
  for (JobId id = 0; id < view.size(); ++id) {
    raw.push_back(RawJob{view.arrival(id).ticks(), view.deadline(id).ticks(),
                         view.length(id).ticks()});
  }
  return raw;
}

bool raw_valid(const std::vector<RawJob>& raw) {
  if (raw.empty()) {
    return false;  // the empty instance fails nothing interesting
  }
  for (const RawJob& j : raw) {
    if (j.arrival < 0 || j.arrival > j.deadline || j.length <= 0 ||
        j.deadline > kMaxTicks - j.length) {
      return false;
    }
  }
  return true;
}

/// Well-founded shrink measure: job count first, then total tick mass.
/// Candidates are only adopted when this strictly decreases, so rounds
/// terminate at a true fixpoint (no snap/halve oscillation).
struct Measure {
  std::size_t jobs;
  unsigned __int128 mass;

  bool operator<(const Measure& other) const {
    return jobs != other.jobs ? jobs < other.jobs : mass < other.mass;
  }
};

Measure measure_of(const std::vector<RawJob>& raw) {
  Measure m{raw.size(), 0};
  for (const RawJob& j : raw) {
    m.mass += static_cast<unsigned __int128>(j.arrival);
    m.mass += static_cast<unsigned __int128>(j.deadline);
    m.mass += static_cast<unsigned __int128>(j.length);
  }
  return m;
}

Instance from_raw(const std::vector<RawJob>& raw) {
  JobTable table;
  table.reserve(raw.size());
  for (const RawJob& j : raw) {
    table.push_back(Time(j.arrival), Time(j.deadline), Time(j.length));
  }
  return Instance{std::move(table)};
}

std::int64_t floor_to_unit(std::int64_t ticks) {
  // Ticks are non-negative everywhere the shrinker operates (negative
  // arrivals never survive raw_valid via the translate pass first).
  return ticks >= 0 ? ticks / kUnit * kUnit : -((-ticks + kUnit - 1) / kUnit) * kUnit;
}

}  // namespace

ShrinkResult shrink_instance(const Instance& failing,
                             const FailurePredicate& still_fails) {
  ShrinkResult result;
  std::vector<RawJob> current = to_raw(failing);
  FJS_REQUIRE(raw_valid(current), "shrink: seed instance is not shrinkable");

  auto budget_left = [&]() {
    return result.predicate_calls < kMaxPredicateCalls;
  };
  // Tries a candidate; on success adopts it into `current`.
  auto attempt = [&](std::vector<RawJob> candidate) -> bool {
    if (!raw_valid(candidate) || !(measure_of(candidate) < measure_of(current)) ||
        !budget_left()) {
      return false;
    }
    ++result.predicate_calls;
    if (!still_fails(from_raw(candidate))) {
      return false;
    }
    current = std::move(candidate);
    return true;
  };

  FJS_REQUIRE(still_fails(from_raw(current)),
              "shrink: predicate does not fail on the seed instance");
  ++result.predicate_calls;

  bool changed = true;
  while (changed && result.rounds < kMaxRounds && budget_left()) {
    changed = false;
    ++result.rounds;

    // Pass 1: drop chunks of jobs, halving the chunk size down to 1.
    for (std::size_t chunk = std::max<std::size_t>(current.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
      for (std::size_t begin = 0; begin < current.size();) {
        std::vector<RawJob> candidate = current;
        const std::size_t end = std::min(begin + chunk, candidate.size());
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(begin),
                        candidate.begin() + static_cast<std::ptrdiff_t>(end));
        if (attempt(std::move(candidate))) {
          changed = true;  // indices shifted; retry the same position
        } else {
          begin += chunk;
        }
      }
      if (chunk == 1) {
        break;
      }
    }

    // Pass 2: per-job simplifications, in job order. Each edit family is
    // tried independently against the current instance.
    for (std::size_t i = 0; i < current.size(); ++i) {
      auto edit = [&](auto&& mutate) {
        std::vector<RawJob> candidate = current;
        mutate(candidate[i]);
        if (attempt(std::move(candidate))) {
          changed = true;
        }
      };
      edit([](RawJob& j) { j.deadline = j.arrival; });        // zero laxity
      edit([](RawJob& j) {                                    // to origin
        const std::int64_t laxity = j.deadline - j.arrival;
        j.arrival = 0;
        j.deadline = laxity;
      });
      edit([](RawJob& j) {                                    // snap to grid
        j.arrival = floor_to_unit(j.arrival);
        j.deadline = floor_to_unit(j.deadline);
        j.length = std::max<std::int64_t>(floor_to_unit(j.length), kUnit);
      });
      edit([](RawJob& j) { j.length = kUnit; });              // unit length
      edit([](RawJob& j) { j.length = 1; });                  // one tick
      edit([](RawJob& j) { j.length /= 2; });                 // halve length
      edit([](RawJob& j) {                                    // halve laxity
        j.deadline = j.arrival + (j.deadline - j.arrival) / 2;
      });
      edit([](RawJob& j) {                                    // halve arrival
        const std::int64_t laxity = j.deadline - j.arrival;
        j.arrival /= 2;
        j.deadline = j.arrival + laxity;
      });
    }

    // Pass 3: global simplifications.
    {
      std::int64_t min_arrival = kMaxTicks;
      for (const RawJob& j : current) {
        min_arrival = std::min(min_arrival, j.arrival);
      }
      if (min_arrival != 0) {
        std::vector<RawJob> candidate = current;
        for (RawJob& j : candidate) {
          j.arrival -= min_arrival;
          j.deadline -= min_arrival;
        }
        if (attempt(std::move(candidate))) {
          changed = true;
        }
      }
    }
    {
      std::vector<RawJob> candidate = current;
      for (RawJob& j : candidate) {
        j.arrival /= 2;
        j.deadline /= 2;
        j.length = std::max<std::int64_t>(j.length / 2, 1);
      }
      if (attempt(std::move(candidate))) {
        changed = true;
      }
    }
  }

  result.fixpoint = !changed;
  result.instance = from_raw(current);
  return result;
}

}  // namespace fjs
