// Tests for the experiments subsystem: registry contents and selection
// semantics, manifest/verdict JSON round-trips, runner determinism
// across worker counts, and failure propagation from a planted
// failing-verdict experiment.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/registry.h"
#include "experiments/runner.h"
#include "support/assert.h"
#include "support/json.h"

namespace fjs::experiments {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(ExperimentRegistry, SixteenBuiltinsWithUniqueNames) {
  const auto& registry = experiment_registry();
  ASSERT_GE(registry.size(), 16u);
  std::set<std::string> names;
  for (const auto* exp : registry) {
    EXPECT_TRUE(names.insert(exp->name()).second)
        << "duplicate experiment name " << exp->name();
    EXPECT_FALSE(exp->title().empty()) << exp->name();
    EXPECT_FALSE(exp->description().empty()) << exp->name();
    EXPECT_FALSE(exp->paper_ref().empty()) << exp->name();
  }
  for (int i = 1; i <= 16; ++i) {
    const std::string name = "e" + std::to_string(i);
    EXPECT_EQ(registry[static_cast<std::size_t>(i - 1)]->name(), name);
    EXPECT_EQ(find_experiment(name)->name(), name);
  }
  EXPECT_EQ(find_experiment("nope"), nullptr);
}

TEST(ExperimentRegistry, SelectByOnlyKeepsRegistryOrder) {
  const auto selected = select_experiments({"e14", "e1"}, "");
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->name(), "e1");  // registry order, not --only order
  EXPECT_EQ(selected[1]->name(), "e14");
  EXPECT_THROW(select_experiments({"e99"}, ""), AssertionError);
}

TEST(ExperimentRegistry, SelectByFilterRegex) {
  const auto selected = select_experiments({}, "miner|overlap");
  std::set<std::string> names;
  for (const auto* exp : selected) {
    names.insert(exp->name());
  }
  EXPECT_TRUE(names.count("e14"));  // "worst-case instance miner"
  EXPECT_TRUE(names.count("e15"));  // "overlap theta sweep"
  EXPECT_FALSE(names.count("e2"));

  // Case-insensitive, and --only intersects with --filter.
  EXPECT_EQ(select_experiments({}, "MINER"), select_experiments({}, "miner"));
  const auto both = select_experiments({"e14", "e2"}, "miner");
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0]->name(), "e14");

  EXPECT_THROW(select_experiments({}, "(unclosed"), AssertionError);
  EXPECT_EQ(select_experiments({}, "").size(), experiment_registry().size());
}

TEST(ExperimentSeed, ZeroBasePreservesLegacySeeds) {
  EXPECT_EQ(experiment_seed(0, "e1"), 0u);
  EXPECT_EQ(experiment_seed(0, "e16"), 0u);
  EXPECT_NE(experiment_seed(7, "e1"), 0u);
  EXPECT_NE(experiment_seed(7, "e1"), experiment_seed(7, "e2"));
  EXPECT_EQ(experiment_seed(7, "e1"), experiment_seed(7, "e1"));
  EXPECT_NE(experiment_seed(7, "e1"), experiment_seed(8, "e1"));
}

TEST(Verdicts, FactoriesSetBracketsAndPassFlag) {
  EXPECT_TRUE(Verdict::equals("a", 1.0001, 1.0, 1e-3).pass);
  EXPECT_FALSE(Verdict::equals("a", 1.01, 1.0, 1e-3).pass);
  EXPECT_TRUE(Verdict::at_most("b", 5.0, 5.0).pass);
  EXPECT_FALSE(Verdict::at_most("b", 5.1, 5.0).pass);
  EXPECT_TRUE(Verdict::at_least("c", 1.0, 1.0).pass);
  EXPECT_FALSE(Verdict::at_least("c", 0.9, 1.0).pass);
  EXPECT_TRUE(Verdict::between("d", 1.5, 1.0, 2.0).pass);
  EXPECT_FALSE(Verdict::between("d", 2.5, 1.0, 2.0).pass);
  EXPECT_THROW(Verdict::between("d", 0.0, 2.0, 1.0), AssertionError);
}

TEST(Json, ParseDumpRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc.set("string", JsonValue::string("with \"quotes\" and \n newline"));
  doc.set("int", JsonValue::number(42));
  doc.set("frac", JsonValue::number(0.1));
  doc.set("tiny", JsonValue::number(1e-9));
  doc.set("flag", JsonValue::boolean(true));
  doc.set("nothing", JsonValue::null());
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::number(1.5));
  arr.push_back(JsonValue::string("x"));
  doc.set("arr", arr);

  EXPECT_EQ(JsonValue::parse(doc.dump()), doc);
  EXPECT_EQ(JsonValue::parse(doc.dump(0)), doc);
  EXPECT_THROW(JsonValue::parse("{\"unterminated\": "), AssertionError);
}

TEST(Json, IntegralNumbersPrintPlainAndRoundTrip) {
  const std::vector<std::pair<double, std::string>> cases = {
      {0.0, "0"},
      {10.0, "10"},
      {2780.0, "2780"},
      {-7.0, "-7"},
      {9007199254740992.0, "9007199254740992"},  // 2^53
      {0.1, "0.1"},
  };
  for (const auto& [value, text] : cases) {
    const JsonValue number = JsonValue::number(value);
    EXPECT_EQ(number.dump(0), text);
    EXPECT_EQ(JsonValue::parse(number.dump(0)).as_number(), value) << text;
  }
}

TEST(Json, UnsignedIntegersRoundTripExactly) {
  const std::vector<std::pair<std::uint64_t, std::string>> cases = {
      {0, "0"},
      {9007199254740993ULL, "9007199254740993"},  // 2^53 + 1
      {16647628098778500000ULL, "16647628098778500000"},
      {UINT64_MAX, "18446744073709551615"},
  };
  for (const auto& [value, text] : cases) {
    const JsonValue number = JsonValue::unsigned_integer(value);
    EXPECT_EQ(number.dump(0), text);
    const JsonValue parsed = JsonValue::parse(text);
    EXPECT_EQ(parsed.kind(), JsonValue::Kind::kUnsigned) << text;
    EXPECT_EQ(parsed.as_unsigned(), value) << text;
    EXPECT_EQ(parsed, number) << text;
    EXPECT_EQ(parsed.dump(0), text);
  }
  // One past UINT64_MAX no longer fits: it parses as a double.
  EXPECT_EQ(JsonValue::parse("18446744073709551616").kind(),
            JsonValue::Kind::kNumber);
  // A double holding the same value compares equal; 2^53 + 1 has no
  // double, so the nearest one does not.
  EXPECT_EQ(JsonValue::number(7.0), JsonValue::unsigned_integer(7));
  EXPECT_NE(JsonValue::number(9007199254740992.0),
            JsonValue::unsigned_integer(9007199254740993ULL));
  EXPECT_THROW((void)JsonValue::number(0.5).as_unsigned(), AssertionError);
  EXPECT_THROW((void)JsonValue::number(-1.0).as_unsigned(), AssertionError);
}

TEST(Json, ManifestRecordsSeedsExactly) {
  RunReport report;
  report.run_id = "seed-run";
  report.base_seed = UINT64_MAX;
  ExperimentRecord record;
  record.name = "e2";
  record.seed = 9007199254740993ULL;  // 2^53 + 1
  report.records.push_back(record);
  const JsonValue manifest = JsonValue::parse(manifest_json(report).dump());
  EXPECT_EQ(manifest.get("base_seed").as_unsigned(), UINT64_MAX);
  EXPECT_EQ(manifest.get("experiments").at(0).get("seed").as_unsigned(),
            9007199254740993ULL);
  const JsonValue verdicts = JsonValue::parse(verdicts_json(report).dump());
  EXPECT_EQ(verdicts.get("base_seed").as_unsigned(), UINT64_MAX);
}

RunReport sample_report() {
  RunReport report;
  report.run_id = "test-run";
  report.run_dir = "results/test-run";
  report.smoke = true;
  report.base_seed = 9;
  report.jobs = 4;
  ExperimentRecord record;
  record.name = "e1";
  record.title = "demo";
  record.paper_ref = "Thm 0";
  record.seed = experiment_seed(9, "e1");
  record.wall_ms = 12.5;
  record.verdicts.push_back(Verdict::equals("v", 1.0, 1.0, 1e-6, "note"));
  record.csv_files.push_back("e1/demo.csv");
  record.artifacts.push_back("e1/raw.json");
  record.diagnostics.emplace_back("memo_hits.demo", 7.0);
  report.records.push_back(record);
  return report;
}

TEST(Json, ManifestAndVerdictsRoundTrip) {
  const RunReport report = sample_report();

  const JsonValue manifest = manifest_json(report);
  EXPECT_EQ(JsonValue::parse(manifest.dump()), manifest);
  EXPECT_EQ(manifest.get("schema").as_string(), "fjs-experiments-manifest/1");
  EXPECT_EQ(manifest.get("run_id").as_string(), "test-run");
  const JsonValue& entry = manifest.get("experiments").at(0);
  EXPECT_EQ(entry.get("name").as_string(), "e1");
  EXPECT_DOUBLE_EQ(entry.get("wall_ms").as_number(), 12.5);
  EXPECT_EQ(entry.get("csv_files").at(0).as_string(), "e1/demo.csv");
  EXPECT_DOUBLE_EQ(
      entry.get("diagnostics").get("memo_hits.demo").as_number(), 7.0);

  const JsonValue verdicts = verdicts_json(report);
  EXPECT_EQ(JsonValue::parse(verdicts.dump()), verdicts);
  EXPECT_EQ(verdicts.get("schema").as_string(), "fjs-experiments-verdicts/1");
  EXPECT_TRUE(verdicts.get("all_passed").as_bool());
  const JsonValue& v = verdicts.get("experiments").at(0).get("verdicts").at(0);
  // Diagnostics may vary with --jobs, so they stay out of verdicts.json.
  EXPECT_EQ(verdicts.get("experiments").at(0).find("diagnostics"), nullptr);
  EXPECT_EQ(v.get("name").as_string(), "v");
  EXPECT_TRUE(v.get("pass").as_bool());
  // No timestamps/run ids in verdicts.json — it must be byte-stable.
  EXPECT_EQ(verdicts.find("created_utc"), nullptr);
  EXPECT_EQ(verdicts.find("run_id"), nullptr);
}

RunReport run_smoke_subset(const fs::path& out_root, std::size_t jobs) {
  RunnerOptions options;
  options.smoke = true;
  options.jobs = jobs;
  options.out_root = out_root.string();
  options.run_id = "run";
  options.quiet = true;
  return run_experiments(select_experiments({"e2", "e3"}, ""), options);
}

TEST(Runner, SmokeSubsetDeterministicAcrossJobCounts) {
  const fs::path serial_root = fresh_dir("fjs_exp_serial");
  const fs::path parallel_root = fresh_dir("fjs_exp_parallel");
  const RunReport serial = run_smoke_subset(serial_root, 1);
  const RunReport parallel = run_smoke_subset(parallel_root, 4);
  EXPECT_TRUE(serial.all_passed());
  EXPECT_TRUE(parallel.all_passed());

  const std::vector<std::string> files = {
      "verdicts.json", "e2/e2_batch_tight.csv", "e2/e2_limits.csv",
      "e3/e3_batchplus_tight.csv", "e3/e3_limits.csv"};
  for (const auto& file : files) {
    EXPECT_EQ(read_file(serial_root / "run" / file),
              read_file(parallel_root / "run" / file))
        << file << " differs between --jobs 1 and --jobs 4";
  }
  // The emitted files are exactly the ones the records advertise.
  for (const auto& record : serial.records) {
    for (const auto& csv : record.csv_files) {
      EXPECT_TRUE(fs::exists(serial_root / "run" / csv)) << csv;
    }
  }
}

TEST(Runner, RefusesToOverwriteExplicitRunId) {
  const fs::path root = fresh_dir("fjs_exp_overwrite");
  RunnerOptions options;
  options.smoke = true;
  options.jobs = 1;
  options.out_root = root.string();
  options.run_id = "run";
  options.quiet = true;
  const auto selection = select_experiments({"e4"}, "");
  run_experiments(selection, options);
  // The refusal must be loud AND actionable: the message points at --force.
  try {
    run_experiments(selection, options);
    FAIL() << "second run with the same explicit run id did not throw";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("--force"), std::string::npos)
        << e.what();
  }
}

TEST(Runner, ForceReplacesThePreviousRunDirectory) {
  const fs::path root = fresh_dir("fjs_exp_force");
  RunnerOptions options;
  options.smoke = true;
  options.jobs = 1;
  options.out_root = root.string();
  options.run_id = "run";
  options.quiet = true;
  const auto selection = select_experiments({"e4"}, "");
  run_experiments(selection, options);

  // Plant a stale artifact; --force must replace the whole directory, not
  // merge into it.
  const fs::path stale = root / "run" / "stale-artifact.txt";
  std::ofstream(stale) << "left over from the previous run\n";
  ASSERT_TRUE(fs::exists(stale));

  options.force = true;
  const RunReport report = run_experiments(selection, options);
  EXPECT_TRUE(report.all_passed());
  EXPECT_FALSE(fs::exists(stale)) << "--force merged instead of replacing";
  EXPECT_TRUE(fs::exists(root / "run" / "manifest.json"));
}

TEST(Runner, TelemetryBlockIsByteStableAcrossSerialRuns) {
  // The manifest's telemetry block carries only deterministic counters, so
  // repeated --jobs 1 runs of the same selection must serialize it
  // identically. The first run is excluded: process-lifetime warm-up
  // (thread-local runner state) may legitimately differ.
  const fs::path root = fresh_dir("fjs_exp_telemetry");
  std::vector<std::string> blocks;
  for (int i = 0; i < 3; ++i) {
    RunnerOptions options;
    options.smoke = true;
    options.jobs = 1;
    options.out_root = (root / ("r" + std::to_string(i))).string();
    options.run_id = "run";
    options.quiet = true;
    run_experiments(select_experiments({"e2", "e3"}, ""), options);
    const JsonValue manifest = JsonValue::parse(
        read_file(fs::path(options.out_root) / "run" / "manifest.json"));
    const JsonValue* telemetry = manifest.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    blocks.push_back(telemetry->dump());
  }
  EXPECT_EQ(blocks[1], blocks[2])
      << "telemetry block differs between identical --jobs 1 runs";
}

TEST(Runner, TraceFileIsValidChromeTracingJson) {
  const fs::path root = fresh_dir("fjs_exp_trace");
  RunnerOptions options;
  options.smoke = true;
  options.jobs = 2;
  options.out_root = root.string();
  options.run_id = "run";
  options.quiet = true;
  options.trace_path = (root / "trace.json").string();
  run_experiments(select_experiments({"e2", "e4"}, ""), options);

  const JsonValue doc = JsonValue::parse(read_file(options.trace_path));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->size(), 2u);  // one complete event per experiment
  std::set<std::string> names;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    EXPECT_FALSE(event.get("name").as_string().empty());
    EXPECT_FALSE(event.get("ph").as_string().empty());
    EXPECT_GE(event.get("ts").as_number(), 0.0);
    (void)event.get("pid").as_number();
    (void)event.get("tid").as_number();
    names.insert(event.get("name").as_string());
  }
  EXPECT_TRUE(names.count("e2"));
  EXPECT_TRUE(names.count("e4"));
}

// A registered experiment whose verdicts fail must fail the whole run
// (nonzero exit), without disturbing the experiments that passed.
class PlantedFailure final : public Experiment {
 public:
  std::string name() const override { return "planted-failure"; }
  std::string title() const override { return "planted failing verdict"; }
  std::string description() const override {
    return "test double: one passing and one failing verdict";
  }
  std::string paper_ref() const override { return "-"; }
  ExperimentResult run(ExperimentContext& ctx) const override {
    ExperimentResult result;
    ctx.out() << "planted failure running\n";
    result.verdicts.push_back(Verdict::equals("fine", 1.0, 1.0, 1e-9));
    result.verdicts.push_back(
        Verdict::at_most("doomed", 2.0, 1.0, "must fail"));
    return result;
  }
};

TEST(Runner, PlantedFailingVerdictYieldsNonzeroExit) {
  register_experiment(std::make_unique<PlantedFailure>());
  EXPECT_THROW(register_experiment(std::make_unique<PlantedFailure>()),
               AssertionError);  // duplicate name

  RunnerOptions options;
  options.smoke = true;
  options.jobs = 2;
  options.out_root = fresh_dir("fjs_exp_planted").string();
  options.run_id = "run";
  options.quiet = true;
  const RunReport report =
      run_experiments(select_experiments({"e4", "planted-failure"}, ""),
                      options);

  EXPECT_FALSE(report.all_passed());
  EXPECT_EQ(exit_code(report), 1);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_TRUE(report.records[0].passed()) << "e4 must not be disturbed";
  EXPECT_FALSE(report.records[1].passed());

  const JsonValue verdicts = JsonValue::parse(
      read_file(fs::path(options.out_root) / "run" / "verdicts.json"));
  EXPECT_FALSE(verdicts.get("all_passed").as_bool());
  const JsonValue& planted = verdicts.get("experiments").at(1);
  EXPECT_EQ(planted.get("name").as_string(), "planted-failure");
  EXPECT_FALSE(planted.get("verdicts").at(1).get("pass").as_bool());
}

// An experiment that throws is reported as an error, not a crash.
class PlantedThrow final : public Experiment {
 public:
  std::string name() const override { return "planted-throw"; }
  std::string title() const override { return "planted exception"; }
  std::string description() const override {
    return "test double: throws AssertionError from run()";
  }
  std::string paper_ref() const override { return "-"; }
  ExperimentResult run(ExperimentContext&) const override {
    FJS_REQUIRE(false, "synthetic failure");
    return {};
  }
};

TEST(Runner, ThrowingExperimentBecomesRecordedError) {
  register_experiment(std::make_unique<PlantedThrow>());
  RunnerOptions options;
  options.smoke = true;
  options.jobs = 1;
  options.out_root = fresh_dir("fjs_exp_throw").string();
  options.run_id = "run";
  options.quiet = true;
  const RunReport report =
      run_experiments(select_experiments({"planted-throw"}, ""), options);
  EXPECT_FALSE(report.all_passed());
  EXPECT_NE(report.records[0].error.find("synthetic failure"),
            std::string::npos);
  EXPECT_EQ(exit_code(report), 1);
}

}  // namespace
}  // namespace fjs::experiments
