// The experiment runner: executes a selection of registered experiments
// in parallel, lays out results/<run-id>/, and aggregates the verdicts.
//
// Output layout (docs/EXPERIMENTS_RUNNER.md documents the schemas):
//   <out_root>/<run_id>/
//     manifest.json        run configuration, host info, per-experiment
//                          wall times and emitted files
//     verdicts.json        every Verdict record; byte-stable across
//                          repeated runs and --jobs counts at a fixed
//                          seed (no timestamps inside)
//     report.txt           the replayed narrative logs + verdict summary
//     <name>/              one directory per experiment
//       report.txt         that experiment's narrative log
//       <csv_name>.csv     tables via CsvWriter
//       ...                self-written artifacts (e.g. e9 benchmarks)
//
// Execution model: experiments run on one pool (one experiment per index
// of a parallel_for), and ExperimentContext::pool points at the same pool
// for intra-experiment parallel_for; TaskGroup's helping wait lets the
// two levels nest without deadlock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "experiments/experiment.h"
#include "support/json.h"
#include "support/telemetry.h"

namespace fjs::experiments {

struct RunnerOptions {
  bool smoke = false;
  /// Worker threads for BOTH pools; 0 = hardware concurrency.
  std::size_t jobs = 0;
  /// Base seed. 0 (default) reproduces the legacy bench outputs byte
  /// for byte; any other value derives a per-experiment offset via
  /// experiment_seed().
  std::uint64_t seed = 0;
  std::string out_root = "results";
  /// Directory name under out_root. Empty: a fresh "run-<utc>-p<pid>"
  /// id is generated. Explicit ids must not already exist (refuses to
  /// overwrite a previous run) unless `force` is set.
  std::string run_id;
  /// Deletes and recreates an existing <out_root>/<run_id> instead of
  /// refusing. Only meaningful with an explicit run_id.
  bool force = false;
  /// When non-empty, the run records Chrome-tracing events (one span per
  /// experiment) and writes them to this path as JSON on completion.
  std::string trace_path;
  /// Suppresses the console replay (files are always written).
  bool quiet = false;
  /// Console sink for progress + replayed logs; nullptr = std::cout.
  std::ostream* console = nullptr;
};

/// Outcome of one experiment inside a run.
struct ExperimentRecord {
  std::string name;
  std::string title;
  std::string paper_ref;
  std::uint64_t seed = 0;
  double wall_ms = 0.0;
  std::vector<Verdict> verdicts;
  std::vector<std::string> csv_files;  ///< relative to the run directory
  std::vector<std::string> artifacts;  ///< relative to the run directory
  /// ExperimentResult::diagnostics; manifest only.
  std::vector<std::pair<std::string, double>> diagnostics;
  std::string error;                   ///< exception text; empty = ran clean

  bool passed() const;
};

struct RunReport {
  std::string run_id;
  std::string run_dir;  ///< <out_root>/<run_id>
  bool smoke = false;
  std::uint64_t base_seed = 0;
  std::size_t jobs = 0;
  std::vector<ExperimentRecord> records;
  /// Telemetry attributed to this run (delta of the process-wide metrics
  /// across the run). manifest.json renders the deterministic subset.
  telemetry::Snapshot telemetry;

  bool all_passed() const;
};

/// Deterministic per-experiment seed offset: 0 stays 0 (legacy outputs),
/// otherwise a splitmix-style hash of (base, name) so experiments do not
/// share RNG streams.
std::uint64_t experiment_seed(std::uint64_t base, const std::string& name);

/// Runs `selection` under `options`: creates the run directory, executes
/// in parallel, writes CSVs/reports/manifest.json/verdicts.json, and
/// replays the narrative logs to the console in selection order.
RunReport run_experiments(const std::vector<const Experiment*>& selection,
                          const RunnerOptions& options);

/// The JSON documents the runner persists, exposed for tests.
JsonValue manifest_json(const RunReport& report);
JsonValue verdicts_json(const RunReport& report);

/// 0 when every experiment ran clean and every verdict passed, 1
/// otherwise (the CLI maps usage errors to 2 itself).
int exit_code(const RunReport& report);

}  // namespace fjs::experiments
