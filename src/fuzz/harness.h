// The fuzzing harness: generate → oracle-check → shrink → emit repro.
//
// Determinism contract: for a fixed (seed_start, count, generator config,
// oracle set), the set of failing seeds, the shrunk instances, and the
// repro files are identical regardless of thread count. Seeds are checked
// via parallel_map (index-keyed result slots), failures are collected in
// seed order, and shrinking runs serially — the thread pool only
// parallelizes the embarrassingly parallel per-seed oracle work.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "fuzz/shrink.h"

namespace fjs {

struct FuzzOptions {
  std::uint64_t seed_start = 1;
  std::uint64_t count = 1'000;
  FuzzGenConfig gen;
  OracleOptions oracle_options;
  /// Oracle battery; empty means standard_oracles(oracle_options).
  std::vector<Oracle> oracles;
  /// Worker threads for the seed sweep; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Stop after this many failing seeds (each seed counts once even if
  /// several oracles reject it — the first failure is the one reported).
  std::size_t max_failures = 8;
  bool shrink = true;
  /// When non-empty, one repro file per failure is written here as
  /// fuzz-<seed>.repro. The directory must already exist.
  std::string repro_dir;
};

/// One failing seed, fully triaged.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::string oracle;
  std::string detail;
  Instance original;
  std::optional<Instance> shrunk;
  std::optional<ShrinkResult> shrink_stats;
  /// Path of the emitted repro file, if repro_dir was set.
  std::string repro_path;
};

struct FuzzReport {
  std::uint64_t instances_run = 0;
  std::vector<FuzzCase> failures;
  double elapsed_seconds = 0.0;

  bool passed() const { return failures.empty(); }
  double instances_per_minute() const;
  /// Multi-line human-readable account of the run.
  std::string summary() const;
};

/// Runs the sweep described by `options`.
FuzzReport run_fuzz(const FuzzOptions& options);

/// Replays one instance against the battery (standard if `oracles` empty);
/// returns all failures. Used by `fjs_fuzz --replay` and the tests.
std::vector<FuzzFailure> replay_instance(const Instance& instance,
                                         const FuzzOptions& options);

}  // namespace fjs
