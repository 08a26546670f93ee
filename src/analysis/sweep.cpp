#include "analysis/sweep.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "offline/annealing.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "support/assert.h"
#include "support/parallel.h"
#include "workload/generator.h"

namespace fjs {
namespace {

struct OptBounds {
  Time upper;
  Time lower;
};

OptBounds opt_bounds_for(const Instance& instance, const SweepOptions& opts) {
  if (opts.opt_method == OptMethod::kExact) {
    const Time opt = exact_optimal_span(instance, opts.exact_options);
    return OptBounds{opt, opt};
  }
  Time upper = heuristic_span(instance, opts.heuristic_options);
  if (opts.bracket_anneal_iterations > 0) {
    AnnealingOptions anneal_opts;
    anneal_opts.iterations = opts.bracket_anneal_iterations;
    upper = std::min(upper, anneal_schedule(instance, anneal_opts).span);
  }
  return OptBounds{upper, best_lower_bound(instance)};
}

}  // namespace

std::vector<SchedulerAggregate> run_ratio_sweep(
    const std::vector<SweepCase>& cases,
    const std::vector<std::string>& scheduler_keys,
    const SweepOptions& options) {
  FJS_REQUIRE(!scheduler_keys.empty(), "sweep: no schedulers given");
  // A serial sweep never resolves the pool, so it does not start the
  // global pool's threads.
  const auto for_each_case = [&](const auto& fn) {
    if (options.serial) {
      serial_for(cases.size(), fn);
    } else {
      parallel_for(options.pool != nullptr ? *options.pool : global_pool(),
                   cases.size(), fn);
    }
  };

  // Phase 1: per-case OPT bounds (the expensive part), computed once.
  // Case costs are uneven (annealing/heuristic effort varies with the
  // instance), so workers pull cases dynamically instead of being handed
  // fixed chunks; slot-indexed writes keep the result deterministic.
  std::vector<OptBounds> bounds(cases.size());
  auto compute_bounds = [&](std::size_t i) {
    bounds[i] = opt_bounds_for(cases[i].instance, options);
  };
  for_each_case(compute_bounds);

  // Phase 2: the (case × scheduler) grid of simulations, one task per
  // case. The portfolio kernel prepares each case's arrival timeline once
  // and replays it for every scheduler; scheduler objects are built once
  // per worker thread (the engine reset()s them before each run), so the
  // steady state allocates nothing per cell. Replays are bit-identical to
  // per-cell simulate_span (pinned by the portfolio determinism tests),
  // and slot-indexed writes keep the reduction order-independent.
  const std::size_t n_keys = scheduler_keys.size();
  const std::size_t grid = cases.size() * n_keys;
  std::vector<Time> spans(grid);
  auto run_case = [&](std::size_t c) {
    thread_local PortfolioRunner runner;
    thread_local std::unordered_map<std::string,
                                    std::unique_ptr<OnlineScheduler>>
        scheduler_cache;
    thread_local std::vector<PortfolioEntry> entries;
    thread_local std::vector<Time> case_spans;
    entries.clear();
    for (const std::string& key : scheduler_keys) {
      auto& slot = scheduler_cache[key];
      if (slot == nullptr) {
        slot = make_scheduler(key);
      }
      entries.push_back(
          PortfolioEntry{slot.get(), slot->requires_clairvoyance()});
    }
    runner.run_spans(cases[c].instance, entries, case_spans);
    std::copy(case_spans.begin(), case_spans.end(),
              spans.begin() + static_cast<std::ptrdiff_t>(c * n_keys));
  };
  for_each_case(run_case);

  // Phase 3: deterministic reduction in index order.
  std::vector<SchedulerAggregate> aggregates(scheduler_keys.size());
  for (std::size_t s = 0; s < scheduler_keys.size(); ++s) {
    aggregates[s].scheduler_key = scheduler_keys[s];
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t s = 0; s < scheduler_keys.size(); ++s) {
      const Time span = spans[c * scheduler_keys.size() + s];
      SchedulerAggregate& agg = aggregates[s];
      agg.spans.add(span.to_units());
      if (bounds[c].upper > Time::zero()) {
        agg.ratio_lower.add(time_ratio(span, bounds[c].upper));
      }
      if (bounds[c].lower > Time::zero()) {
        agg.ratio_upper.add(time_ratio(span, bounds[c].lower));
      }
    }
  }
  return aggregates;
}

std::vector<SweepCase> make_cases(const WorkloadConfig& config,
                                  const std::string& label,
                                  std::size_t replicas, std::uint64_t seed0) {
  std::vector<SweepCase> cases;
  cases.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    const std::uint64_t seed = seed0 + r;
    cases.push_back(SweepCase{.label = label, .seed = seed,
                              .instance = generate_workload(config, seed)});
  }
  return cases;
}

}  // namespace fjs
