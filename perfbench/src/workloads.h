// The benchmark's four workloads. Each one owns a fixed corpus of items
// generated from the workload seed; an item is one call into a public
// library entry point, timed by the benchmark loop, followed by output
// checks that run off the clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

enum class Size { kTiny, kFull };

/// Off-clock verdict on one item's output.
struct ItemResult {
  std::uint64_t hash = 0;  ///< digest contribution; identical on every repeat
  double work = 0.0;       ///< throughput units the item completed
  std::string failure;     ///< empty when every output check passed
};

/// What the traced phase saw, for workload-specific per-layer metrics.
struct TracedPhase {
  const std::vector<std::size_t>& item_index;  ///< corpus index per item
  const std::vector<double>& item_ms;          ///< timed duration per item
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What `throughput` counts per second, e.g. "simulated jobs".
  virtual const char* work_unit() const = 0;
  /// Worker threads of the workload's own pool (0: single-threaded).
  virtual std::size_t pool_size() const { return 0; }

  /// Generates and validates the corpus and builds schedulers, runners and
  /// pools. Returns the seconds spent generating inputs.
  virtual double build(std::uint64_t seed, Size size) = 0;
  virtual std::size_t items() const = 0;

  /// The timed call.
  virtual void run(std::size_t item) = 0;
  /// Checks the output of the last run of `item`.
  virtual ItemResult check(std::size_t item) = 0;
  /// Cross-checks made once per run against a second code path, after the
  /// timed loop; returns one message per failure.
  virtual std::vector<std::string> check_once() = 0;

  /// Traced mode only: untimed calls made after each item (decompositions
  /// and direct layer probes); returns a failure message or "".
  virtual std::string trace_extras(std::size_t /*item*/) { return ""; }
  /// Traced mode only: per-layer metrics computed from per-item results.
  virtual void layer_metrics(const TracedPhase& /*phase*/,
                             std::map<std::string, double>& /*out*/) const {}
};

/// Known names: stream, sweep, certify, mine. nullptr for anything else.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Tracer& tracer);

}  // namespace perfbench
