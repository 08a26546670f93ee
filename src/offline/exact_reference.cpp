// Legacy exhaustive grid DFS — the original exact solver, kept as the
// differential-testing oracle for the branch-and-bound in exact.cpp.
// Deliberately unchanged in structure: its value is that it is slow,
// simple, and easy to audit.
#include "offline/exact.h"

#include <algorithm>
#include <vector>

#include "core/interval_set.h"
#include "support/assert.h"

namespace fjs {
namespace {

/// DFS state shared across the recursion.
struct GridSearch {
  const Instance& instance;
  const ExactOptions& options;
  std::vector<JobId> order;               // most-constrained-first
  std::vector<IntervalSet> mandatory_sfx; // suffix unions of mandatory regions
  std::vector<Time> chosen;               // start per order position
  std::vector<Time> best_starts;
  Time best_span = Time::max();
  std::size_t nodes = 0;

  GridSearch(const Instance& inst, const ExactOptions& opts)
      : instance(inst), options(opts) {}

  void run() {
    build_order();
    build_mandatory_suffixes();
    chosen.resize(order.size());
    best_starts.resize(order.size());
    IntervalSet placed;
    dfs(0, placed);
    FJS_CHECK(best_span < Time::max(), "exact reference: no schedule found");
  }

  void build_order() {
    order = instance.ids_by_deadline();
    // Most-constrained-first: small laxity branches less; longer jobs first
    // among equals so big intervals prune early.
    std::stable_sort(order.begin(), order.end(), [this](JobId a, JobId b) {
      const Job& ja = instance.job(a);
      const Job& jb = instance.job(b);
      if (ja.laxity() != jb.laxity()) {
        return ja.laxity() < jb.laxity();
      }
      return ja.length > jb.length;
    });
  }

  void build_mandatory_suffixes() {
    mandatory_sfx.assign(order.size() + 1, IntervalSet{});
    for (std::size_t i = order.size(); i-- > 0;) {
      mandatory_sfx[i] = mandatory_sfx[i + 1];
      const Job& j = instance.job(order[i]);
      mandatory_sfx[i].add(Interval(j.deadline, j.arrival + j.length));
    }
  }

  Time bound_with_mandatory(const IntervalSet& placed, std::size_t index) {
    IntervalSet merged = placed;
    merged.unite(mandatory_sfx[index]);
    return merged.measure();
  }

  void dfs(std::size_t index, const IntervalSet& placed) {
    ++nodes;
    FJS_REQUIRE(nodes <= options.max_nodes,
                "exact reference: node budget exhausted — instance too large "
                "for the grid DFS");
    if (index == order.size()) {
      const Time span = placed.measure();
      if (span < best_span) {
        best_span = span;
        best_starts = chosen;
      }
      return;
    }
    if (bound_with_mandatory(placed, index) >= best_span) {
      return;  // admissible bound: cannot beat the incumbent
    }
    const Job& j = instance.job(order[index]);

    // Enumerate grid starts, cheapest marginal contribution first — good
    // incumbents early make the bound bite.
    struct Candidate {
      Time start;
      Time marginal;
    };
    std::vector<Candidate> candidates;
    const std::int64_t q = options.quantum.ticks();
    for (std::int64_t s = j.arrival.ticks(); s <= j.deadline.ticks(); s += q) {
      const Interval iv = j.active_interval(Time(s));
      candidates.push_back(Candidate{Time(s), placed.uncovered_measure(iv)});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.marginal < b.marginal;
                     });
    for (const Candidate& cand : candidates) {
      IntervalSet next = placed;
      next.add(j.active_interval(cand.start));
      chosen[index] = cand.start;
      dfs(index + 1, next);
    }
  }
};

}  // namespace

ExactResult exact_optimal_reference(const Instance& instance,
                                    ExactOptions options) {
  FJS_REQUIRE(options.quantum > Time::zero(),
              "exact reference: quantum must be > 0");
  if (instance.empty()) {
    return ExactResult{.span = Time::zero(), .schedule = Schedule(0),
                       .nodes_explored = 0};
  }
  FJS_REQUIRE(instance.is_multiple_of(options.quantum),
              "exact reference: instance is not aligned to the quantum grid");
  GridSearch search(instance, options);
  search.run();

  Schedule schedule(instance.size());
  for (std::size_t i = 0; i < search.order.size(); ++i) {
    schedule.set_start(search.order[i], search.best_starts[i]);
  }
  schedule.validate(instance);
  FJS_CHECK(schedule.span(instance) == search.best_span,
            "exact reference: span mismatch on reconstruction");
  return ExactResult{.span = search.best_span, .schedule = std::move(schedule),
                     .nodes_explored = search.nodes};
}

Time exact_optimal_span_reference(const Instance& instance,
                                  ExactOptions options) {
  return exact_optimal_reference(instance, options).span;
}

}  // namespace fjs
