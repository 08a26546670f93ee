// Event types and deterministic same-tick ordering for the simulator.
#pragma once

#include <cstdint>
#include <string>

#include "core/job.h"
#include "core/time.h"

namespace fjs {

/// Same-tick processing order (lower value first). The order encodes the
/// paper's half-open interval semantics:
///  * LengthDecision before Completion: a deferred length decision that
///    resolves "this job completes right now" must join this tick's
///    completion batch;
///  * Completion before Arrival: a job arriving exactly when a Batch+ flag
///    completes belongs to the NEXT iteration ([d, d+p) excludes d+p);
///  * Arrival before Deadline: a zero-laxity job arrives and immediately
///    hits its starting deadline within the same tick.
enum class EventKind : std::uint8_t {
  kLengthDecision = 0,
  kCompletion = 1,
  kArrival = 2,
  kDeadline = 3,
  kSchedulerTimer = 4,
  kSourceWakeup = 5,
  /// Trace-only marker for job starts; never enqueued.
  kStart = 6,
};

std::string to_string(EventKind kind);

/// Same-tick priority used by every event queue and merge in the engine
/// (lower rank pops first). Kept as a single function so the heap, the
/// staged-arrival merge, and any external replayer cannot disagree.
/// scripts/mutants/tiebreak.patch swaps the completion/arrival ranks (a job
/// arriving exactly at a completion would join the current iteration); the
/// fuzz harness must catch that (docs/FUZZING.md §6).
constexpr int same_tick_rank(EventKind kind) {
  return static_cast<int>(kind);
}

/// Bit position of the same-tick rank inside an event's tie word; the
/// low 58 bits hold the engine's FIFO sequence number (one per pushed
/// event, so no run comes near 2^58).
inline constexpr int kTieRankShift = 58;

/// The tie word of an event of `kind` pushed as the engine's seq-th event:
/// rank in the high bits, seq below, so one integer compare orders
/// same-tick events by (rank, seq).
constexpr std::uint64_t tie_word(EventKind kind, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(same_tick_rank(kind)) << kTieRankShift) |
         seq;
}

struct Event {
  // Field order packs the struct into 32 bytes (wide members first); events
  // are copied constantly on the engine's hot path.
  Time time;
  /// tie_word(kind, seq): same-tick priority, then FIFO insertion order.
  std::uint64_t tie = 0;
  /// User data for scheduler timers.
  std::uint64_t tag = 0;
  JobId job = kInvalidJob;
  EventKind kind = EventKind::kArrival;
};

/// Min-heap ordering: earliest time, then kind rank, then insertion order.
constexpr bool event_before(const Event& a, const Event& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.tie < b.tie;
}

}  // namespace fjs
