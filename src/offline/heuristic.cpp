#include "offline/heuristic.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interval_set.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace fjs {
namespace {

telemetry::Counter g_tm_descent_evals{"heuristic.descent_evals"};
telemetry::Counter g_tm_descent_skips{"heuristic.descent_skips"};
telemetry::Counter g_tm_descent_moves{"heuristic.descent_moves"};

using Components = std::span<const Interval>;

/// Scratch for one heuristic_optimal call, reused across every order and
/// pass so the search allocates only while its buffers grow.
struct Workspace {
  /// Every job's active interval, by id, and the same list sorted by left
  /// endpoint; both track `starts` through every move. sorted_reach[i] is
  /// the largest `hi` in sorted[0..i].
  std::vector<Interval> intervals;
  std::vector<Interval> sorted;
  std::vector<Time> sorted_reach;
  /// Every job's feasible window sorted by left endpoint, the job each one
  /// belongs to, and their running max of `hi`; fixed for the whole call.
  std::vector<Interval> windows;
  std::vector<JobId> window_ids;
  std::vector<Time> window_reach;
  /// By id: 1 while some interval touching the job's window has moved
  /// since the job was last evaluated.
  std::vector<std::uint8_t> dirty;
  /// Union of everyone else's intervals near one job's window.
  std::vector<Interval> others;
  /// The greedy's union of already-placed intervals.
  IntervalSet placed;
  std::vector<Time> candidates;
};

/// Coordinate-descent counts, summed over one heuristic_optimal call.
struct DescentStats {
  std::uint64_t evals = 0;
  std::uint64_t skips = 0;
  std::uint64_t moves = 0;
};

Time clamp_time(Time value, Time lo, Time hi) {
  return std::max(lo, std::min(value, hi));
}

/// j's feasible window [a, d + p]: every start in [a, d] keeps j's active
/// interval inside it.
Interval window_of(const Job& j) {
  return Interval(j.arrival, j.latest_completion());
}

/// Fills `reach` with the running max of `hi` over a lo-sorted list.
void build_reach(const std::vector<Interval>& sorted,
                 std::vector<Time>& reach) {
  reach.resize(sorted.size());
  Time hi = Time::min();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    hi = std::max(hi, sorted[i].hi);
    reach[i] = hi;
  }
}

/// Where a scan of a lo-sorted list for intervals ending at or after `lo`
/// starts, given its `reach`: every interval before it ends before `lo`.
std::size_t first_reaching(const std::vector<Time>& reach, Time lo) {
  return static_cast<std::size_t>(
      std::lower_bound(reach.begin(), reach.end(), lo) - reach.begin());
}

/// The slice of a sorted, disjoint component list that touches `window`.
Components touching(const std::vector<Interval>& components,
                    const Interval& window) {
  const auto first = std::lower_bound(
      components.begin(), components.end(), window.lo,
      [](const Interval& c, Time lo) { return c.hi < lo; });
  auto last = first;
  while (last != components.end() && last->lo <= window.hi) {
    ++last;
  }
  return {first, last};
}

/// Candidate starts for job j against the fixed components touching its
/// window: window endpoints plus alignments of either end of j's interval
/// with any component endpoint. The marginal-span function is piecewise
/// linear with breakpoints exactly here. A component off the window would
/// only add candidates that clamp to a(j) or d(j), so the slice yields the
/// same set as the whole union.
void collect_candidates(const Job& j, Components near,
                        std::vector<Time>& out) {
  out.clear();
  out.push_back(j.arrival);
  out.push_back(j.deadline);
  for (const Interval& c : near) {
    for (const Time e : {c.lo, c.hi}) {
      out.push_back(clamp_time(e, j.arrival, j.deadline));
      out.push_back(
          clamp_time(e.saturating_sub(j.length), j.arrival, j.deadline));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Best start for j given the components touching its window; returns
/// (start, marginal uncovered measure), the first minimum in start order.
std::pair<Time, Time> best_placement(const Job& j, Components near,
                                     std::vector<Time>& scratch) {
  collect_candidates(j, near, scratch);
  Time best_start = j.deadline;
  Time best_marginal = Time::max();
  for (const Time s : scratch) {
    const Time marginal =
        IntervalSet::uncovered_measure(near, j.active_interval(s));
    if (marginal < best_marginal) {
      best_marginal = marginal;
      best_start = s;
    }
  }
  return {best_start, best_marginal};
}

/// Greedy construction: place jobs in `order`, each at its best alignment
/// against the union of already-placed intervals.
void greedy(InstanceView inst, const std::vector<JobId>& order,
            Workspace& ws, std::vector<Time>& starts) {
  ws.placed.clear();
  for (const JobId id : order) {
    const Job j = inst.job(id);
    const Components near = touching(ws.placed.components(), window_of(j));
    starts[id] = best_placement(j, near, ws.candidates).first;
    ws.placed.add(j.active_interval(starts[id]));
  }
}

/// Loads ws.windows, ws.window_ids and ws.window_reach from the ids in
/// arrival order (a window's lo is its job's arrival); once per call.
void load_windows(InstanceView inst, const std::vector<JobId>& by_arrival,
                  Workspace& ws) {
  ws.window_ids = by_arrival;
  ws.windows.clear();
  for (const JobId id : ws.window_ids) {
    ws.windows.push_back(window_of(inst.job(id)));
  }
  build_reach(ws.windows, ws.window_reach);
}

/// Loads ws.intervals, ws.sorted and ws.sorted_reach from `starts`, and
/// marks every job dirty.
void load_intervals(InstanceView inst, const std::vector<Time>& starts,
                    Workspace& ws) {
  ws.intervals.resize(inst.size());
  for (JobId id = 0; id < inst.size(); ++id) {
    ws.intervals[id] = inst.job(id).active_interval(starts[id]);
  }
  ws.sorted.assign(ws.intervals.begin(), ws.intervals.end());
  std::sort(ws.sorted.begin(), ws.sorted.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  build_reach(ws.sorted, ws.sorted_reach);
  ws.dirty.assign(inst.size(), 1);
}

/// Merges into ws.others the union of the intervals that touch `window`,
/// minus one copy of job `id`'s own. The scan starts where the running
/// max of `hi` first reaches window.lo (every earlier interval ends before
/// the window) and walks the lo-sorted list to window.hi. Inside the
/// window this union equals the whole "everyone else" union, and outside
/// it its component endpoints clamp to the same candidates.
void merge_others_near(JobId id, const Interval& window, Workspace& ws) {
  ws.others.clear();
  bool skipped = false;
  for (std::size_t i = first_reaching(ws.sorted_reach, window.lo);
       i < ws.sorted.size() && ws.sorted[i].lo <= window.hi; ++i) {
    const Interval& iv = ws.sorted[i];
    if (iv.hi < window.lo) {
      continue;
    }
    if (!skipped && iv == ws.intervals[id]) {
      skipped = true;  // drop exactly one instance of this job's interval
      continue;
    }
    if (!ws.others.empty() && iv.lo <= ws.others.back().hi) {
      ws.others.back().hi = std::max(ws.others.back().hi, iv.hi);
    } else {
      ws.others.push_back(iv);
    }
  }
}

/// Marks dirty every job whose closed window touches `iv`, the same test
/// merge_others_near applies to decide what a job's "others" union holds.
void mark_windows_touching(const Interval& iv, Workspace& ws) {
  for (std::size_t i = first_reaching(ws.window_reach, iv.lo);
       i < ws.windows.size() && ws.windows[i].lo <= iv.hi; ++i) {
    if (ws.windows[i].touches(iv)) {
      ws.dirty[ws.window_ids[i]] = 1;
    }
  }
}

/// One coordinate-descent pass; returns true if any job moved. A clean
/// job is skipped: its own interval and every interval touching its
/// window are as they were at its last evaluation, which found no strict
/// improvement, so it would find none now.
bool improve_pass(InstanceView inst, const std::vector<JobId>& order,
                  Workspace& ws, std::vector<Time>& starts,
                  DescentStats& stats) {
  bool moved = false;
  for (const JobId id : order) {
    if (ws.dirty[id] == 0) {
      ++stats.skips;
      continue;
    }
    ws.dirty[id] = 0;
    ++stats.evals;
    const Job j = inst.job(id);
    merge_others_near(id, window_of(j), ws);
    const Time current_marginal =
        IntervalSet::uncovered_measure(ws.others, ws.intervals[id]);
    const auto [best_start, best_marginal] =
        best_placement(j, ws.others, ws.candidates);
    if (best_marginal < current_marginal) {
      const Interval old_iv = ws.intervals[id];
      starts[id] = best_start;
      ws.intervals[id] = j.active_interval(best_start);
      IntervalSet::replace_in_sorted(ws.sorted, old_iv, ws.intervals[id]);
      build_reach(ws.sorted, ws.sorted_reach);
      mark_windows_touching(old_iv, ws);
      mark_windows_touching(ws.intervals[id], ws);
      // The mover sits at its first minimum against an unchanged union.
      ws.dirty[id] = 0;
      ++stats.moves;
      moved = true;
    }
  }
  return moved;
}

}  // namespace

HeuristicResult heuristic_optimal(InstanceView instance,
                                  HeuristicOptions options) {
  if (instance.empty()) {
    return HeuristicResult{.span = Time::zero(), .schedule = Schedule(0)};
  }
  Rng rng(options.seed);

  const std::vector<JobId> by_deadline = instance.ids_by_deadline();
  const std::vector<JobId> by_arrival = instance.ids_by_arrival();
  std::vector<std::vector<JobId>> orders;
  orders.push_back(by_deadline);
  orders.push_back(by_arrival);
  // Longest-first greedy tends to build good "anchors" for short jobs.
  {
    std::vector<JobId> by_length = by_deadline;
    std::stable_sort(by_length.begin(), by_length.end(),
                     [&](JobId a, JobId b) {
                       return instance.job(a).length > instance.job(b).length;
                     });
    orders.push_back(std::move(by_length));
  }
  for (int r = 0; r < options.restarts; ++r) {
    std::vector<JobId> shuffled = by_arrival;
    rng.shuffle(shuffled);
    orders.push_back(std::move(shuffled));
  }

  Workspace ws;
  load_windows(instance, by_arrival, ws);
  DescentStats stats;
  Time best_span = Time::max();
  std::vector<Time> best_starts;
  std::vector<Time> starts(instance.size());
  std::vector<JobId> pass_order = by_deadline;
  for (const auto& order : orders) {
    greedy(instance, order, ws, starts);
    load_intervals(instance, starts, ws);
    for (int pass = 0; pass < options.max_passes; ++pass) {
      rng.shuffle(pass_order);
      if (!improve_pass(instance, pass_order, ws, starts, stats)) {
        break;
      }
    }
    const Time span = IntervalSet::sorted_union_measure(ws.sorted);
    // The first order always lands: a span of exactly Time::max() (one
    // job covering [0, Time::max())) must not lose to the sentinel.
    if (best_starts.empty() || span < best_span) {
      best_span = span;
      best_starts = starts;
    }
  }

  g_tm_descent_evals.add(stats.evals);
  g_tm_descent_skips.add(stats.skips);
  g_tm_descent_moves.add(stats.moves);

  Schedule schedule = Schedule::from_starts(best_starts);
  schedule.validate(instance);
  return HeuristicResult{.span = best_span, .schedule = std::move(schedule)};
}

Time heuristic_span(InstanceView instance, HeuristicOptions options) {
  return heuristic_optimal(instance, options).span;
}

}  // namespace fjs
