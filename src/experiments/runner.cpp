#include "experiments/runner.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "support/assert.h"
#include "support/csv.h"
#include "support/parallel.h"
#include "support/string_util.h"
#include "support/thread_pool.h"

namespace fjs::experiments {

namespace {

namespace fs = std::filesystem;

std::string utc_timestamp(const char* format) {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buffer[64];
  std::strftime(buffer, sizeof(buffer), format, &tm);
  return buffer;
}

std::string generated_run_id() {
  return "run-" + utc_timestamp("%Y%m%dT%H%M%SZ") + "-p" +
         std::to_string(static_cast<long>(getpid()));
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  FJS_REQUIRE(out.is_open(), "runner: cannot open " + path);
  out << content;
  FJS_REQUIRE(static_cast<bool>(out), "runner: write failed for " + path);
}

JsonValue string_array(const std::vector<std::string>& items) {
  JsonValue array = JsonValue::array();
  for (const auto& item : items) {
    array.push_back(JsonValue::string(item));
  }
  return array;
}

JsonValue verdict_json(const Verdict& verdict) {
  JsonValue value = JsonValue::object();
  value.set("name", JsonValue::string(verdict.name));
  value.set("measured", JsonValue::number(verdict.measured));
  value.set("expected_lo", JsonValue::number(verdict.expected_lo));
  value.set("expected_hi", JsonValue::number(verdict.expected_hi));
  value.set("pass", JsonValue::boolean(verdict.pass));
  value.set("note", JsonValue::string(verdict.note));
  return value;
}

std::size_t failure_count(const ExperimentRecord& record) {
  std::size_t failures = 0;
  for (const auto& verdict : record.verdicts) {
    failures += verdict.pass ? 0u : 1u;
  }
  return failures;
}

}  // namespace

bool ExperimentRecord::passed() const {
  return error.empty() && failure_count(*this) == 0;
}

bool RunReport::all_passed() const {
  for (const auto& record : records) {
    if (!record.passed()) {
      return false;
    }
  }
  return true;
}

std::uint64_t experiment_seed(std::uint64_t base, const std::string& name) {
  if (base == 0) {
    return 0;  // legacy mode: every experiment uses its historical seeds
  }
  // FNV-1a over the name, mixed with the base via splitmix64 finalizer.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL + hash;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

RunReport run_experiments(const std::vector<const Experiment*>& selection,
                          const RunnerOptions& options) {
  const std::size_t hardware = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxThreads);
  const std::size_t jobs = options.jobs == 0 ? hardware : options.jobs;

  RunReport report;
  report.smoke = options.smoke;
  report.base_seed = options.seed;
  report.jobs = jobs;

  fs::create_directories(options.out_root);
  if (options.run_id.empty()) {
    std::string id = generated_run_id();
    for (int n = 2; fs::exists(fs::path(options.out_root) / id); ++n) {
      id = generated_run_id() + "-" + std::to_string(n);
    }
    report.run_id = id;
  } else {
    const fs::path target = fs::path(options.out_root) / options.run_id;
    if (options.force) {
      fs::remove_all(target);
    } else {
      FJS_REQUIRE(
          !fs::exists(target),
          "runner: run directory already exists: " + options.out_root + "/" +
              options.run_id +
              " (refusing to overwrite a previous run; pass --force to "
              "replace it)");
    }
    report.run_id = options.run_id;
  }
  report.run_dir = (fs::path(options.out_root) / report.run_id).string();
  fs::create_directories(report.run_dir);

  report.records.resize(selection.size());
  std::vector<std::string> logs(selection.size());
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const Experiment& exp = *selection[i];
    ExperimentRecord& record = report.records[i];
    record.name = exp.name();
    record.title = exp.title();
    record.paper_ref = exp.paper_ref();
    record.seed = experiment_seed(options.seed, record.name);
    fs::create_directories(fs::path(report.run_dir) / record.name);
  }

  // Attribute telemetry to this run as a before/after delta of the
  // process-wide registry; the deterministic subset lands in the
  // manifest. Tracing (when requested) records one span per experiment.
  const telemetry::Snapshot telemetry_before = telemetry::capture();
  if (!options.trace_path.empty()) {
    telemetry::reset_trace();
    telemetry::set_trace_enabled(true);
  }

  // One pool for everything: the TaskGroup lets a task waiting on
  // subtasks help run queued work instead of blocking its worker, so
  // nesting an experiment's parallel_for inside the experiment fan-out
  // cannot deadlock — and the machine is no longer oversubscribed with
  // 2x `jobs` threads the way the old outer/inner pool pair was.
  ThreadPool pool(jobs);
  parallel_for(
      pool, selection.size(),
      [&](std::size_t i) {
        const Experiment& exp = *selection[i];
        ExperimentRecord& record = report.records[i];
        const telemetry::TraceScope trace_scope(record.name.c_str(),
                                                "experiment");
        const std::string exp_dir =
            (fs::path(report.run_dir) / record.name).string();

        std::ostringstream log;
        ExperimentContext ctx;
        ctx.smoke = options.smoke;
        ctx.seed = record.seed;
        ctx.pool = &pool;
        ctx.log = &log;
        ctx.out_dir = exp_dir;

        const auto start = std::chrono::steady_clock::now();
        ExperimentResult result;
        try {
          result = exp.run(ctx);
          for (const auto& named : result.tables) {
            const std::string relative =
                record.name + "/" + named.csv_name + ".csv";
            CsvWriter csv(report.run_dir + "/" + relative,
                          named.table.header());
            for (const auto& row : named.table.rows()) {
              csv.write_row(row);
            }
            record.csv_files.push_back(relative);
          }
          for (const auto& artifact : result.artifacts) {
            record.artifacts.push_back(record.name + "/" + artifact);
          }
          record.verdicts = result.verdicts;
        } catch (const std::exception& e) {
          record.error = e.what();
        }
        record.wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();

        logs[i] = log.str();
        write_text_file(exp_dir + "/report.txt", logs[i]);
      });

  report.telemetry =
      telemetry::delta(telemetry_before, telemetry::capture());
  if (!options.trace_path.empty()) {
    // parallel_for's barrier guarantees quiescence: no experiment is
    // still emitting events when the buffers are rendered.
    write_text_file(options.trace_path,
                    telemetry::trace_json().dump() + "\n");
    telemetry::set_trace_enabled(false);
  }

  // Serial replay in selection order: console parity with the days when
  // each experiment was its own binary, plus the verdict summaries.
  std::ostringstream replay;
  std::size_t total_verdicts = 0;
  std::size_t total_failures = 0;
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const ExperimentRecord& record = report.records[i];
    const std::size_t failures = failure_count(record);
    total_verdicts += record.verdicts.size();
    total_failures += failures;

    replay << std::string(72, '=') << '\n'
           << record.name << " — " << record.title << " ("
           << record.paper_ref << ")   [" << format_double(record.wall_ms, 0)
           << " ms]\n"
           << std::string(72, '=') << '\n'
           << logs[i];
    if (!record.error.empty()) {
      replay << "ERROR: " << record.error << '\n';
    }
    replay << "verdicts: " << record.verdicts.size() - failures << "/"
           << record.verdicts.size() << " passed\n";
    for (const auto& verdict : record.verdicts) {
      if (!verdict.pass) {
        replay << "  FAIL " << verdict.name << ": measured "
               << format_double(verdict.measured, 6) << " outside ["
               << format_double(verdict.expected_lo, 6) << ", "
               << format_double(verdict.expected_hi, 6) << "]"
               << (verdict.note.empty() ? "" : " — " + verdict.note) << '\n';
      }
    }
    replay << '\n';
  }
  replay << selection.size() << " experiment(s), " << total_verdicts
         << " verdict(s), " << total_failures << " failure(s)"
         << (report.all_passed() ? "" : " — RUN FAILED") << '\n'
         << "results: " << report.run_dir << '\n';

  write_text_file(report.run_dir + "/report.txt", replay.str());
  write_text_file(report.run_dir + "/manifest.json",
                  manifest_json(report).dump() + "\n");
  write_text_file(report.run_dir + "/verdicts.json",
                  verdicts_json(report).dump() + "\n");

  if (!options.quiet) {
    std::ostream& console = options.console ? *options.console : std::cout;
    console << replay.str();
    console.flush();
  }
  return report;
}

JsonValue manifest_json(const RunReport& report) {
  JsonValue manifest = JsonValue::object();
  manifest.set("schema", JsonValue::string("fjs-experiments-manifest/1"));
  manifest.set("run_id", JsonValue::string(report.run_id));
  manifest.set("created_utc",
               JsonValue::string(utc_timestamp("%Y-%m-%dT%H:%M:%SZ")));
  manifest.set("profile",
               JsonValue::string(report.smoke ? "smoke" : "full"));
  manifest.set("base_seed", JsonValue::unsigned_integer(report.base_seed));
  manifest.set("jobs", JsonValue::unsigned_integer(report.jobs));
  manifest.set("hardware_concurrency",
               JsonValue::unsigned_integer(std::max<std::size_t>(
                   1, std::thread::hardware_concurrency())));

  JsonValue host = JsonValue::object();
  char hostname[256] = {0};
  if (gethostname(hostname, sizeof(hostname) - 1) != 0) {
    std::snprintf(hostname, sizeof(hostname), "unknown");
  }
  host.set("hostname", JsonValue::string(hostname));
  utsname uts{};
  if (uname(&uts) == 0) {
    host.set("system", JsonValue::string(uts.sysname));
    host.set("release", JsonValue::string(uts.release));
    host.set("machine", JsonValue::string(uts.machine));
  }
  manifest.set("host", host);

  // Counters only: at --jobs 1 with a deterministic selection this block
  // is byte-stable across repeated runs (pinned by
  // test_experiments_registry); wall time lives in the trace spans.
  manifest.set("telemetry", telemetry::snapshot_json(report.telemetry));

  JsonValue experiments = JsonValue::array();
  for (const auto& record : report.records) {
    JsonValue entry = JsonValue::object();
    entry.set("name", JsonValue::string(record.name));
    entry.set("title", JsonValue::string(record.title));
    entry.set("paper_ref", JsonValue::string(record.paper_ref));
    entry.set("seed", JsonValue::unsigned_integer(record.seed));
    entry.set("wall_ms", JsonValue::number(record.wall_ms));
    entry.set("csv_files", string_array(record.csv_files));
    entry.set("artifacts", string_array(record.artifacts));
    entry.set("verdicts", JsonValue::unsigned_integer(record.verdicts.size()));
    entry.set("failures", JsonValue::unsigned_integer(failure_count(record)));
    entry.set("error", JsonValue::string(record.error));
    experiments.push_back(entry);
  }
  manifest.set("experiments", experiments);
  manifest.set("all_passed", JsonValue::boolean(report.all_passed()));
  return manifest;
}

JsonValue verdicts_json(const RunReport& report) {
  // Deliberately carries no run id, timestamps or wall times: two runs
  // with the same selection, profile and seed must produce identical
  // bytes regardless of --jobs — the determinism tests diff this file.
  JsonValue root = JsonValue::object();
  root.set("schema", JsonValue::string("fjs-experiments-verdicts/1"));
  root.set("profile", JsonValue::string(report.smoke ? "smoke" : "full"));
  root.set("base_seed", JsonValue::unsigned_integer(report.base_seed));
  root.set("all_passed", JsonValue::boolean(report.all_passed()));
  JsonValue experiments = JsonValue::array();
  for (const auto& record : report.records) {
    JsonValue entry = JsonValue::object();
    entry.set("name", JsonValue::string(record.name));
    entry.set("error", JsonValue::string(record.error));
    JsonValue verdicts = JsonValue::array();
    for (const auto& verdict : record.verdicts) {
      verdicts.push_back(verdict_json(verdict));
    }
    entry.set("verdicts", verdicts);
    experiments.push_back(entry);
  }
  root.set("experiments", experiments);
  return root;
}

int exit_code(const RunReport& report) {
  return report.all_passed() ? 0 : 1;
}

}  // namespace fjs::experiments
