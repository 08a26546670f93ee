// Greedy instance shrinking for fuzz failures.
//
// Given a failing instance and a deterministic predicate "does this
// instance still fail?", the shrinker repeatedly applies simplifying
// candidate edits and keeps any edit that preserves the failure:
//   1. drop jobs (ddmin-style chunks, then single jobs),
//   2. simplify one job at a time (zero the laxity, snap times to the unit
//      grid, shorten the length, halve magnitudes),
//   3. simplify globally (translate the instance to start at 0, halve all
//      tick values).
// Rounds repeat until a full round changes nothing (a fixpoint) or the
// budget runs out. Every candidate is validity-checked before the
// predicate sees it, and the pass order is fixed, so the result is a
// deterministic function of (instance, predicate).
#pragma once

#include <cstddef>
#include <functional>

#include "core/instance.h"

namespace fjs {

/// Returns true iff the candidate instance still exhibits the failure.
/// Must be deterministic and side-effect free.
using FailurePredicate = std::function<bool(const Instance&)>;

struct ShrinkResult {
  Instance instance;
  std::size_t rounds = 0;
  std::size_t predicate_calls = 0;
  /// True when shrinking stopped at a fixpoint (no further candidate
  /// preserved the failure) rather than on the budget.
  bool fixpoint = false;
};

/// Requires still_fails(failing) to be true; throws AssertionError
/// otherwise (an unreproducible failure must not be silently "minimized").
ShrinkResult shrink_instance(const Instance& failing,
                             const FailurePredicate& still_fails);

}  // namespace fjs
