// The Experiment interface: one registered object per paper experiment
// (E1–E16, and E17+ as follow-up papers land), replacing the former
// one-binary-per-experiment bench/ layout.
//
// An experiment declares its identity (name, title, description, paper
// reference), runs under a scaled-down smoke profile or the full
// profile, and returns a structured ExperimentResult: tables destined
// for fail-loud CSV emission, machine-checkable Verdict records that
// turn EXPERIMENTS.md's prose claims into executable assertions, and
// any extra artifacts it wrote itself. The runner (runner.h) owns
// output placement, parallel execution and aggregation.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "support/table.h"

namespace fjs {
class ThreadPool;
}

namespace fjs::experiments {

/// A machine-checkable claim: the measured value must land inside
/// [expected_lo, expected_hi]. Construct through the factories so the
/// bracket and pass flag stay consistent.
struct Verdict {
  std::string name;        ///< e.g. "e1 ratio floor mu=2 k=4 batch+"
  double measured = 0.0;
  double expected_lo = 0.0;
  double expected_hi = 0.0;
  bool pass = false;
  std::string note;        ///< closed form / theorem being checked

  /// measured == expected up to +-tolerance.
  static Verdict equals(std::string name, double measured, double expected,
                        double tolerance, std::string note = "");
  /// measured <= bound (+slack).
  static Verdict at_most(std::string name, double measured, double bound,
                         std::string note = "", double slack = 1e-9);
  /// measured >= bound (-slack).
  static Verdict at_least(std::string name, double measured, double bound,
                          std::string note = "", double slack = 1e-9);
  /// lo <= measured <= hi.
  static Verdict between(std::string name, double measured, double lo,
                         double hi, std::string note = "");
};

/// A console table plus the CSV base name it is persisted under.
struct NamedTable {
  std::string csv_name;  ///< base name; the runner appends ".csv"
  std::string title;
  Table table;
};

struct ExperimentResult {
  std::vector<NamedTable> tables;
  std::vector<Verdict> verdicts;
  /// Files the experiment wrote itself into ExperimentContext::out_dir
  /// (e.g. E9's google-benchmark JSON), relative to that directory.
  std::vector<std::string> artifacts;
};

/// Everything the runner hands an experiment for one execution.
struct ExperimentContext {
  /// Scaled-down CI profile when true, full reproduction otherwise.
  bool smoke = false;
  /// Deterministic per-experiment seed offset. 0 (the default base
  /// seed) reproduces the legacy bench outputs byte for byte; see
  /// experiment_seed() in runner.h.
  std::uint64_t seed = 0;
  /// Pool for intra-experiment parallelism: the one pool the runner also
  /// schedules experiments on (TaskGroup's helping wait lets the two
  /// levels nest).
  ThreadPool* pool = nullptr;
  /// Narrative sink (intro text, rendered tables, readings). Never
  /// null while run() executes; the runner replays it to the console
  /// and into the experiment's report.txt.
  std::ostream* log = nullptr;
  /// Existing directory for self-written artifacts (ExperimentResult::
  /// artifacts entries are relative to it).
  std::string out_dir;

  std::ostream& out() const;
  ThreadPool& worker_pool() const;
};

class Experiment {
 public:
  virtual ~Experiment() = default;

  /// Registry key, lower-case, e.g. "e1".
  virtual std::string name() const = 0;
  /// Short human title, e.g. "non-clairvoyant lower bound".
  virtual std::string title() const = 0;
  /// One-to-two-sentence description (also matched by --filter).
  virtual std::string description() const = 0;
  /// Paper anchor, e.g. "Thm 3.3 / Fig. 1" ("-" for ours).
  virtual std::string paper_ref() const = 0;

  virtual ExperimentResult run(ExperimentContext& ctx) const = 0;
};

/// Mirrors the old bench::emit(): renders the table into the narrative
/// log and queues it for CSV emission by the runner.
void emit_table(ExperimentContext& ctx, ExperimentResult& result,
                const std::string& title, Table table,
                const std::string& csv_name);

}  // namespace fjs::experiments
