#include "fuzz/oracles.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/instance_stats.h"
#include "core/interval_set.h"
#include "offline/annealing.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/portfolio.h"
#include "sim/trace_check.h"
#include "support/assert.h"

namespace fjs {
namespace {

constexpr std::int64_t kUnit = Time::kTicksPerUnit;

/// From-scratch span recomputation: fresh IntervalSet over the realized
/// schedule, no SpanTracker involved.
Time recomputed_span(const Instance& instance, const Schedule& schedule) {
  IntervalSet set;
  for (JobId id = 0; id < instance.size(); ++id) {
    set.add(schedule.active_interval(instance, id));
  }
  return set.measure();
}

std::optional<std::string> check_simulation(const Instance& instance,
                                            const SchedulerSpec& spec,
                                            bool clairvoyant,
                                            SimulationResult* out) {
  const auto scheduler = spec.make();
  SimulationResult result;
  try {
    // Portfolio full mode (one entry per model so an exception stays
    // attributed to the model that threw): identical replay to the classic
    // simulate() path, but the prepared timeline, engine workspace and
    // scheduler context are amortized across the fuzzer's many calls.
    const PortfolioEntry entry{scheduler.get(), clairvoyant};
    PortfolioOptions portfolio_options;
    portfolio_options.record_trace = true;
    auto results = simulate_portfolio(
        instance, std::span<const PortfolioEntry>(&entry, 1),
        portfolio_options);
    result = std::move(results.front());
  } catch (const std::exception& e) {
    return std::string("simulation threw: ") + e.what();
  }
  if (!result.schedule.is_valid(result.instance)) {
    return std::string("schedule is invalid");
  }
  const auto violations =
      check_trace(result.instance, result.schedule, result.trace);
  if (!violations.empty()) {
    return "trace violations: " + violations_to_string(violations);
  }
  const Time recomputed = recomputed_span(result.instance, result.schedule);
  if (result.realized_span != recomputed) {
    return "incremental SpanTracker span " + result.realized_span.to_string() +
           " != from-scratch IntervalSet span " + recomputed.to_string();
  }
  if (out != nullptr) {
    *out = std::move(result);
  }
  return std::nullopt;
}

}  // namespace

/// One oracle per registered scheduler. Clairvoyance-requiring schedulers
/// run in the clairvoyant model only; the rest run in BOTH models and must
/// behave identically (they cannot observe lengths, so revealing them must
/// not change a single start).
Oracle scheduler_oracle(const SchedulerSpec& spec) {
  return Oracle{
      "sched:" + spec.key,
      [spec](const Instance& instance) -> std::optional<std::string> {
        SimulationResult primary;
        if (auto issue = check_simulation(instance, spec,
                                          /*clairvoyant=*/spec.clairvoyant,
                                          &primary)) {
          return (spec.clairvoyant ? "[cv] " : "[nc] ") + *issue;
        }
        if (spec.clairvoyant) {
          return std::nullopt;
        }
        SimulationResult revealed;
        if (auto issue = check_simulation(instance, spec,
                                          /*clairvoyant=*/true, &revealed)) {
          return "[cv] " + *issue;
        }
        for (JobId id = 0; id < primary.instance.size(); ++id) {
          if (primary.schedule.start(id) != revealed.schedule.start(id)) {
            return "length-oracle inconsistency: job " + std::to_string(id) +
                   " starts at " + primary.schedule.start(id).to_string() +
                   " non-clairvoyantly but " +
                   revealed.schedule.start(id).to_string() +
                   " clairvoyantly";
          }
        }
        return std::nullopt;
      }};
}

namespace {

bool offline_in_scope(const Instance& instance, const OracleOptions& options,
                      std::size_t max_jobs) {
  if (instance.empty() || instance.size() > max_jobs) {
    return false;
  }
  const Time cap = Time(options.offline_horizon_cap_units * kUnit);
  return instance.earliest_arrival() >= Time::zero() &&
         instance.latest_completion() <= cap;
}

Oracle offline_sandwich_oracle(const OracleOptions& options) {
  return Oracle{
      "offline-sandwich",
      [options](const Instance& instance) -> std::optional<std::string> {
        if (!offline_in_scope(instance, options, options.exact_max_jobs)) {
          return std::nullopt;
        }
        const Time lb = best_lower_bound(instance);

        const HeuristicResult heur = heuristic_optimal(instance);
        if (!heur.schedule.is_valid(instance)) {
          return std::string("heuristic produced an invalid schedule");
        }
        if (heur.span != heur.schedule.span(instance)) {
          return std::string("heuristic span disagrees with its schedule");
        }
        if (lb > heur.span) {
          return "lower bound " + lb.to_string() + " exceeds heuristic span " +
                 heur.span.to_string();
        }

        AnnealingOptions anneal_options;
        anneal_options.iterations = options.annealing_iterations;
        const AnnealingResult anneal =
            anneal_schedule(instance, anneal_options);
        if (!anneal.schedule.is_valid(instance)) {
          return std::string("annealing produced an invalid schedule");
        }
        if (anneal.span != anneal.schedule.span(instance)) {
          return std::string("annealing span disagrees with its schedule");
        }

        ExactOptions exact_options;
        exact_options.max_nodes = options.exact_max_nodes;
        const ExactResult exact = exact_optimal(instance, exact_options);
        if (!exact.schedule.is_valid(instance)) {
          return std::string("exact solver produced an invalid schedule");
        }
        if (exact.span != exact.schedule.span(instance)) {
          return std::string("exact span disagrees with its schedule");
        }
        // Incumbents are valid schedules even on budget exhaustion, so the
        // lower bound must never exceed them; the tighter claims below
        // need a certified optimum.
        if (lb > exact.span) {
          return "lower bound " + lb.to_string() + " exceeds exact span " +
                 exact.span.to_string() +
                 (exact.optimal() ? "" : " (budget-exceeded incumbent)");
        }
        if (!exact.optimal()) {
          return std::nullopt;
        }
        if (exact.span > heur.span) {
          return "OPT " + exact.span.to_string() + " exceeds heuristic UB " +
                 heur.span.to_string();
        }
        if (exact.span > anneal.span) {
          return "OPT " + exact.span.to_string() + " exceeds annealing UB " +
                 anneal.span.to_string();
        }
        // Every online schedule is feasible offline, so OPT bounds it.
        // Span-mode portfolio: the instance is prepared once and replayed
        // across the whole clairvoyant-model registry. On the (cold) path
        // where some scheduler throws, fall back to the sequential loop so
        // the failure is attributed exactly as the classic path did.
        const auto specs = schedulers_for_model(/*clairvoyant=*/true);
        std::vector<std::unique_ptr<OnlineScheduler>> schedulers;
        std::vector<PortfolioEntry> entries;
        schedulers.reserve(specs.size());
        entries.reserve(specs.size());
        for (const auto& spec : specs) {
          schedulers.push_back(spec.make());
          entries.push_back(
              PortfolioEntry{schedulers.back().get(), /*clairvoyant=*/true});
        }
        PortfolioSpanResult online;
        try {
          online = simulate_portfolio_spans(instance, entries);
        } catch (const std::exception&) {
          for (std::size_t s = 0; s < specs.size(); ++s) {
            Time span;
            try {
              span = simulate_span(instance, *schedulers[s],
                                   /*clairvoyant=*/true);
            } catch (const std::exception& e) {
              return "online " + specs[s].key +
                     " threw during sandwich check: " + e.what();
            }
            if (span < exact.span) {
              return "online " + specs[s].key + " span " + span.to_string() +
                     " beats OPT " + exact.span.to_string();
            }
          }
          throw;  // unreachable: the batched replay is the same run sequence
        }
        for (std::size_t s = 0; s < specs.size(); ++s) {
          if (online.spans[s] < exact.span) {
            return "online " + specs[s].key + " span " +
                   online.spans[s].to_string() + " beats OPT " +
                   exact.span.to_string();
          }
        }
        return std::nullopt;
      }};
}

Oracle ratio_bounds_oracle() {
  return Oracle{
      "ratio-bounds",
      [](const Instance& instance) -> std::optional<std::string> {
        if (instance.empty()) {
          return std::nullopt;
        }
        // Deliberately NOT horizon-capped, unlike the offline oracles:
        // the certified lower bounds and the descriptive stats feed the
        // ratio path (miner objectives, analysis reports) and must
        // survive near-Time::max() magnitudes, where unchecked sums used
        // to overflow-abort.
        InstanceStats stats;
        try {
          stats = compute_instance_stats(instance);
        } catch (const std::exception& e) {
          return std::string("instance stats threw: ") + e.what();
        }
        // The saturating total work is still a sum of positive lengths.
        if (stats.total_work < instance.max_length()) {
          return "saturating total work " + stats.total_work.to_string() +
                 " below max length " + instance.max_length().to_string();
        }
        Time lb;
        try {
          lb = best_lower_bound(instance);
        } catch (const std::exception& e) {
          return std::string("lower bound threw: ") + e.what();
        }
        const auto eager = make_scheduler("eager");
        Time span;
        try {
          span = simulate_span(instance, *eager, /*clairvoyant=*/false);
        } catch (const std::exception& e) {
          return std::string("eager simulation threw: ") + e.what();
        }
        // Any online span is a feasible schedule, so LB <= OPT <= span.
        if (lb > span) {
          return "lower bound " + lb.to_string() + " exceeds online span " +
                 span.to_string();
        }
        return std::nullopt;
      }};
}

Oracle exact_vs_reference_oracle(const OracleOptions& options) {
  return Oracle{
      "exact-vs-reference",
      [options](const Instance& instance) -> std::optional<std::string> {
        if (!offline_in_scope(instance, options,
                              options.reference_max_jobs) ||
            !instance.is_multiple_of(Time(kUnit))) {
          return std::nullopt;
        }
        ExactOptions exact_options;
        exact_options.max_nodes = options.reference_max_nodes;
        // Force the general critical-start search so the two solvers share
        // no branching strategy.
        exact_options.use_integral_fast_path = false;
        const ExactResult bnb = exact_optimal(instance, exact_options);
        if (!bnb.optimal()) {
          return std::nullopt;  // out of budget: no exactness claim
        }
        ExactResult reference;
        try {
          reference = exact_optimal_reference(instance, exact_options);
        } catch (const AssertionError& e) {
          const std::string what = e.what();
          if (what.find("node budget") != std::string::npos) {
            return std::nullopt;  // reference out of budget: skip
          }
          return "reference solver threw: " + what;
        }
        if (bnb.span != reference.span) {
          return "branch-and-bound OPT " + bnb.span.to_string() +
                 " != grid reference OPT " + reference.span.to_string();
        }
        return std::nullopt;
      }};
}

/// The columnar substrate's equivalence claim: reading jobs through a
/// non-owning InstanceView over an independently rebuilt JobTable scratch
/// buffer (the miner's mutate-evaluate path) must be observably identical
/// to reading them through the owning Instance — same derived stats, same
/// certified lower bounds, a byte-identical prepared replay timeline, and
/// identical spans from the view-based run_span path. Deliberately NOT
/// horizon-capped: near-Time::max() magnitudes must agree too, including
/// on which operations fail (both sides throwing counts as agreement).
Oracle view_vs_owned_oracle() {
  return Oracle{
      "view-vs-owned",
      [](const Instance& instance) -> std::optional<std::string> {
        JobTable scratch;
        scratch.reserve(instance.size());
        for (const Job& job : instance.view().jobs()) {
          scratch.push_back(job);
        }
        const InstanceView view = scratch.view();
        if (view.size() != instance.size()) {
          return "scratch table has " + std::to_string(view.size()) +
                 " rows, instance has " + std::to_string(instance.size());
        }
        if (instance.empty()) {
          return std::nullopt;
        }
        const auto time_mismatch =
            [](const char* what, Time v, Time o) -> std::optional<std::string> {
          if (v != o) {
            return std::string(what) + ": view " + v.to_string() +
                   " != owned " + o.to_string();
          }
          return std::nullopt;
        };
        // Derived stats: recomputed over the scratch columns vs the values
        // the Instance cached at construction.
        if (view.mu() != instance.mu()) {
          return "mu: view " + std::to_string(view.mu()) + " != owned " +
                 std::to_string(instance.mu());
        }
        if (auto m = time_mismatch("min_length", view.min_length(),
                                   instance.min_length())) {
          return m;
        }
        if (auto m = time_mismatch("max_length", view.max_length(),
                                   instance.max_length())) {
          return m;
        }
        if (auto m = time_mismatch("earliest_arrival", view.earliest_arrival(),
                                   instance.earliest_arrival())) {
          return m;
        }
        if (auto m = time_mismatch("latest_completion",
                                   view.latest_completion(),
                                   instance.latest_completion())) {
          return m;
        }
        // Total work: the saturating view sum's overflow flag must agree
        // with whether the owning accessor throws, and the values must
        // match when it does not.
        bool view_overflow = false;
        const Time view_work = view.total_work_saturating(&view_overflow);
        try {
          const Time owned_work = instance.total_work();
          if (view_overflow) {
            return "total_work: view saturated but owned returned " +
                   owned_work.to_string();
          }
          if (auto m = time_mismatch("total_work", view_work, owned_work)) {
            return m;
          }
        } catch (const AssertionError&) {
          if (!view_overflow) {
            return "total_work: owned overflow-threw but view computed " +
                   view_work.to_string();
          }
        }
        // Orderings and grid predicate.
        if (view.ids_by_arrival() != instance.ids_by_arrival()) {
          return std::string("ids_by_arrival orders differ");
        }
        if (view.ids_by_deadline() != instance.ids_by_deadline()) {
          return std::string("ids_by_deadline orders differ");
        }
        if (view.is_multiple_of(Time(kUnit)) !=
            instance.is_multiple_of(Time(kUnit))) {
          return std::string("is_multiple_of(1 unit) disagrees");
        }
        // Certified lower bounds (never horizon-capped; the overflow-safe
        // paths are part of the claim).
        if (auto m = time_mismatch("max_length_lower_bound",
                                   max_length_lower_bound(view),
                                   max_length_lower_bound(instance))) {
          return m;
        }
        if (auto m = time_mismatch("mandatory_lower_bound",
                                   mandatory_lower_bound(view),
                                   mandatory_lower_bound(instance))) {
          return m;
        }
        if (auto m = time_mismatch("chain_lower_bound",
                                   chain_lower_bound(view),
                                   chain_lower_bound(instance))) {
          return m;
        }
        if (auto m = time_mismatch("best_lower_bound", best_lower_bound(view),
                                   best_lower_bound(instance))) {
          return m;
        }
        // Descriptive stats (both may throw on pathological magnitudes,
        // but must do so together).
        std::optional<std::string> view_stats;
        std::optional<std::string> owned_stats;
        try {
          view_stats = compute_instance_stats(view).to_string();
        } catch (const std::exception&) {
        }
        try {
          owned_stats = compute_instance_stats(instance).to_string();
        } catch (const std::exception&) {
        }
        if (view_stats != owned_stats) {
          return "instance stats diverge: view " +
                 view_stats.value_or("<threw>") + " vs owned " +
                 owned_stats.value_or("<threw>");
        }
        // Prepared replay timeline: the engine lowering must not depend on
        // which storage the rows came from.
        PreparedInstance owned_prep;
        PreparedInstance view_prep;
        owned_prep.prepare(instance);
        view_prep.prepare(view);
        if (view_prep.size() != owned_prep.size() ||
            view_prep.original_ids() != owned_prep.original_ids()) {
          return std::string("prepared id maps differ");
        }
        for (std::size_t i = 0; i < owned_prep.size(); ++i) {
          const Job a = view_prep.records()[i].job;
          const Job b = owned_prep.records()[i].job;
          if (a.id != b.id || a.arrival != b.arrival ||
              a.deadline != b.deadline || a.length != b.length) {
            return "prepared job record " + std::to_string(i) + " differs";
          }
        }
        if (view_prep.staged().size() != owned_prep.staged().size()) {
          return std::string("staged timelines differ in length");
        }
        for (std::size_t i = 0; i < owned_prep.staged().size(); ++i) {
          const Event& a = view_prep.staged()[i];
          const Event& b = owned_prep.staged()[i];
          if (a.time != b.time || a.seq != b.seq || a.tag != b.tag ||
              a.job != b.job || a.kind != b.kind) {
            return "staged event " + std::to_string(i) + " differs";
          }
        }
        // Spans: the view-based single-entry replay (the miner's hot loop)
        // against the owning-path replay, in both clairvoyance models.
        PortfolioRunner runner;
        const auto eager = make_scheduler("eager");
        for (const bool clairvoyant : {true, false}) {
          const PortfolioEntry entry{eager.get(), clairvoyant};
          Time owned_span;
          try {
            owned_span = runner.run_span(instance, entry);
          } catch (const std::exception& e) {
            return std::string("owned run_span threw: ") + e.what();
          }
          Time view_span;
          try {
            view_span = runner.run_span(view, entry);
          } catch (const std::exception& e) {
            return std::string("view run_span threw: ") + e.what();
          }
          if (view_span != owned_span) {
            return std::string(clairvoyant ? "[cv] " : "[nc] ") +
                   "span: view " + view_span.to_string() + " != owned " +
                   owned_span.to_string();
          }
        }
        return std::nullopt;
      }};
}

}  // namespace

std::vector<Oracle> standard_oracles(const OracleOptions& options) {
  std::vector<Oracle> oracles;
  if (options.run_schedulers) {
    for (const auto& spec : scheduler_registry()) {
      oracles.push_back(scheduler_oracle(spec));
    }
  }
  if (options.run_offline) {
    oracles.push_back(ratio_bounds_oracle());
    oracles.push_back(offline_sandwich_oracle(options));
    oracles.push_back(exact_vs_reference_oracle(options));
  }
  // Always on — no gate, no size cap, no horizon cap: every other oracle
  // reads the instance through this substrate.
  oracles.push_back(view_vs_owned_oracle());
  return oracles;
}

std::vector<FuzzFailure> run_oracles(const Instance& instance,
                                     const std::vector<Oracle>& oracles) {
  std::vector<FuzzFailure> failures;
  for (const Oracle& oracle : oracles) {
    if (auto detail = oracle.check(instance)) {
      failures.push_back(FuzzFailure{oracle.name, *detail});
    }
  }
  return failures;
}

}  // namespace fjs
