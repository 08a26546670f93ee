// Exact offline optimum via pruned branch-and-bound over critical start
// times.
//
// The paper cites Khandekar et al. [11] for a polynomial offline algorithm;
// for reproduction purposes we need a solver whose correctness is easy to
// audit, because it anchors every measured competitive ratio.
//
// Critical-start argument (why a finite candidate set suffices): fix an
// optimal schedule and group jobs whose interval endpoints coincide or abut
// into rigid alignment components. Any component with no job pinned at a
// window endpoint can shift as a block without increasing the span until
// something pins (the span is piecewise linear in the shift and
// non-increasing in one direction), so an optimal schedule exists in which
// every component contains an anchor job starting at its own arrival or
// deadline, and every other member chains off the anchor by endpoint
// alignment. Ordering each component anchor-first, every job starts at one
// of: its arrival, its deadline, or a point aligning one of its interval
// endpoints with a component endpoint of the union of previously placed
// intervals. The search therefore branches over (remaining job, critical
// start) pairs — the job-choice branching is what realizes the anchor-first
// orders. The argument never uses integrality, so unlike the grid
// reference solver below the branch-and-bound accepts arbitrary
// tick-valued instances.
//
// Job-choice branching reaches the same placements in many orders; sleep
// sets (below) remove those repeats without a table. A transposition cache
// keyed on (remaining-job set, placed union) was removed: on the integral
// fast path, which every certification workload takes, it hit on about
// 0.02% of nodes and cost more per node than it saved (docs/PERF.md).
//
// Pruning (speed only, never correctness):
//  * admissible bound  max(measure(placed ∪ mandatory(remaining)),
//    heaviest remaining disjointness chain + placed measure outside its
//    window), the union merged on a scratch buffer (no allocation) and the
//    chain memoized per remaining-job set;
//  * dominance: a remaining job with a zero-marginal start (active interval
//    contained in the placed union) is committed there without branching;
//  * twin symmetry: among identical remaining jobs only the lowest id
//    branches;
//  * sleep sets (general branching): once a move's subtree is finished, no
//    later sibling's subtree makes that move again — any completion that
//    would is also a completion of the finished state. The first optimal
//    leaf in search order is never cut, so spans and witnesses are those
//    of the full tree;
//  * one-ply lookahead (integral grid path only): a child whose quick
//    bound already reaches the pruning bar is cut without recursing;
//  * incumbent seeding: the offline heuristic's schedule primes the upper
//    bound so the admissible bound bites from the first node;
//  * window components (witness searches): jobs whose feasible windows
//    [a, d+p) are disjoint never overlap, so OPT is the sum of the optima
//    of the instance's window components, and each component is searched
//    on its own against its share of the seed's measure instead of
//    multiplying independent subtrees. The witness is unchanged: the seed
//    when no component beats its share, else the whole search's first
//    optimal leaf in DFS order. A job's moves and their order depend only
//    on its own component's placed intervals, so that leaf is every
//    component's first optimal leaf put together; a component whose seed
//    share is already optimal is searched again one tick above it to find
//    its first optimal leaf. The miner's span-only and decision-floor
//    searches keep one whole-instance search.
//
// The integral grid path is the one optimized expansion; it is taken when
// every time is a multiple of a common grid with few starts per window and
// every job is shorter than 2^56 ticks. Everything else takes the plain
// general branching.
#pragma once

#include <cstddef>

#include "core/instance.h"
#include "core/schedule.h"

namespace fjs {

struct ExactOptions {
  /// Grid step for the *reference* solver only (exact_optimal_reference);
  /// the branch-and-bound ignores it. The reference requires
  /// Instance::is_multiple_of(quantum).
  Time quantum = Time(Time::kTicksPerUnit);
  /// Search-node budget, shared by the solves of an instance's window
  /// components. The branch-and-bound returns a structured
  /// ExactStatus::kBudgetExceeded result (best-so-far incumbent) when
  /// exhausted; the reference solver throws AssertionError. Kept as a node
  /// count rather than wall-clock so results stay machine-independent.
  std::size_t max_nodes = 20'000'000;
  /// Prime the incumbent with the offline heuristic's schedule. Costs one
  /// heuristic run up front; repays it by making the admissible bound cut
  /// from the first node. Disable for micro-instances measured in isolation.
  bool seed_with_heuristic = true;
  /// Decision floor (zero = disabled). When the caller only needs to know
  /// whether OPT < floor — the adversarial miner asks "can this candidate's
  /// ratio beat the incumbent", i.e. "is OPT < span/threshold" — the search
  /// runs with the root bound clamped to the floor. Branches whose
  /// admissible bound reaches the floor are cut without being certified,
  /// which prunes far more of the tree than a full optimality proof. The
  /// result is then one of:
  ///  * kOptimal with span < floor: the true optimum (the fail-soft search
  ///    is unaffected below the bound);
  ///  * kFloorProven: OPT >= floor is proven; span/schedule hold the best
  ///    known feasible incumbent (an upper bound), NOT the optimum;
  ///  * kBudgetExceeded: as without the floor.
  Time decision_floor = Time::zero();
  /// Span-only mode: the caller wants the optimal span (or a floor proof),
  /// not a witness schedule. Skips incumbent-schedule construction and the
  /// reconstruction walk entirely; `result.schedule` comes back empty
  /// (size 0). Hot loops that call the solver per candidate — the miner's
  /// certification stage — use this together with `seed_span`.
  bool span_only = false;
  /// Caller-known feasible span (zero = none): seeds the incumbent without
  /// materializing a Schedule. The companion to `span_only` — the miner
  /// passes the online span it just simulated — and only honored there
  /// (span_only mode requires this or seed_with_heuristic; when both are
  /// given the smaller span wins). Ignored when span_only is false, where
  /// every result must carry a witness schedule matching the incumbent.
  Time seed_span = Time::zero();
  /// When every arrival/deadline/length is a multiple of a common grid g
  /// (and windows hold few grid points), an optimal schedule exists on the
  /// g-grid: every critical start is a ±sum-of-lengths away from some
  /// arrival or deadline, all multiples of g. The solver then branches one
  /// fixed most-constrained job per depth over its grid starts (branching
  /// factor = window/g + 1) instead of over all (job, critical-start)
  /// pairs, keeping the same bound/budget machinery. Disable to
  /// force the general critical-start branching everywhere (differential
  /// tests do; it is also what runs automatically when windows are wide
  /// relative to the instance grid, or a job is 2^56 ticks or longer).
  bool use_integral_fast_path = true;
};

enum class ExactStatus {
  kOptimal,         ///< span/schedule are provably optimal
  kBudgetExceeded,  ///< node budget hit; span/schedule are best-so-far
  kFloorProven,     ///< OPT >= decision_floor proven; span is an upper bound
};

struct ExactResult {
  /// The optimum iff status == kOptimal, otherwise the best incumbent found
  /// before the budget ran out (an upper bound).
  Time span;
  /// Witness schedule achieving `span`; empty (size 0) under
  /// ExactOptions::span_only.
  Schedule schedule;
  /// Search nodes, summed over the window components' solves.
  std::size_t nodes_explored = 0;
  ExactStatus status = ExactStatus::kOptimal;
  /// Always 0: the solver's transposition cache was removed. Kept so
  /// existing readers of the field still compile.
  std::size_t cache_hits = 0;

  bool optimal() const { return status == ExactStatus::kOptimal; }
};

/// Computes a provably optimal schedule (any tick-valued instance). Never
/// throws on budget exhaustion — check `result.status`. Reads the rows
/// through a view (an Instance converts to one), so the miner certifies
/// its patched incumbent table without materializing an Instance. The
/// view's rows must be valid jobs; only an Instance guarantees that.
ExactResult exact_optimal(InstanceView view, ExactOptions options = {});

/// Convenience: the optimal span only. Throws AssertionError if the node
/// budget is exhausted (callers that want the structured best-so-far result
/// use exact_optimal).
Time exact_optimal_span(InstanceView view, ExactOptions options = {});

/// Legacy grid DFS, kept verbatim as the differential-testing oracle for
/// the branch-and-bound. Requires the instance on the `options.quantum`
/// grid and throws AssertionError when the node budget is exhausted.
ExactResult exact_optimal_reference(const Instance& instance,
                                    ExactOptions options = {});

/// Convenience: the reference solver's optimal span only.
Time exact_optimal_span_reference(const Instance& instance,
                                  ExactOptions options = {});

}  // namespace fjs
