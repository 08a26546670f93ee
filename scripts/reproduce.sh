#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, run every
# experiment's smoke profile through fjs_experiments (E1-E16 tables,
# verdicts + E9 microbenchmarks), and leave the transcripts in
# test_output.txt / bench_output.txt at the repo root. Full-profile
# reproduction: `build/src/experiments/fjs_experiments` (no --smoke).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Differential fuzzing smoke: a fixed seed window through every oracle
# (schedulers + trace validator + span recomputation + offline sandwich).
# Deterministic; failures are shrunk and land in fuzz_repros/.
mkdir -p fuzz_repros
build/src/fuzz/fjs_fuzz --smoke --repro-dir fuzz_repros 2>&1 | tee -a test_output.txt

# Full-profile determinism gate: the thread count must not change a
# single output byte. Runs every experiment but E9 (timing only) at
# --jobs 1 and at --jobs $(nproc), then byte-diffs verdicts.json and every
# CSV of the two runs (values that legitimately vary with the thread
# count belong in manifest.json, which is not compared).
rm -rf results/full-jobs1 results/full-jobsN
build/src/experiments/fjs_experiments --skip e9 --jobs 1 \
  --out results --run-id full-jobs1 --quiet
build/src/experiments/fjs_experiments --skip e9 --jobs "$(nproc)" \
  --out results --run-id full-jobsN --quiet
list_outputs() {
  (cd "$1" && { echo verdicts.json; find . -name '*.csv' | sort; })
}
determinism_ok=1
if ! diff <(list_outputs results/full-jobs1) <(list_outputs results/full-jobsN); then
  echo "ERROR: full-profile runs wrote different sets of files" \
    | tee -a test_output.txt
  determinism_ok=0
fi
while read -r file; do
  if ! cmp "results/full-jobs1/$file" "results/full-jobsN/$file"; then
    determinism_ok=0
  fi
done < <(list_outputs results/full-jobs1)
if [ "$determinism_ok" = 1 ]; then
  echo "full-profile determinism OK: --jobs 1 and --jobs $(nproc) verdicts and CSVs byte-identical" \
    | tee -a test_output.txt
else
  echo "ERROR: full-profile outputs differ between --jobs 1 and --jobs $(nproc)" \
    | tee -a test_output.txt
  exit 1
fi

# Static-analysis gate: clang-tidy over src/ against the checked-in
# suppression baseline (.clang-tidy + scripts/clang_tidy_baseline.txt).
# Skips with a warning where clang-tidy is not installed.
scripts/run_clang_tidy.sh 2>&1 | tee -a test_output.txt

# Sanitizer smoke: the offline certification stack (exact solver, bounds,
# miner, differential pins), the columnar job table's stat loops, the
# engine's replays (which read job columns borrowed from
# PreparedInstance) and the span tracker, plus the fuzz harness under
# ASan+UBSan. Fast mode — only the tests whose memory behavior recent PRs
# changed, not the full suite. test_portfolio_allocs runs here too: its
# counting operator new wraps the sanitizer's malloc.
cmake --preset asan-ubsan
cmake --build build-asan --target \
  test_core_job_table test_offline_exact test_offline_bounds \
  test_offline_heuristic test_adversary_miner test_differential \
  test_bugfix_regressions test_sim_engine test_sim_portfolio \
  test_portfolio_allocs test_golden_trace test_core_span_tracker \
  test_engine_errors fjs_fuzz
ctest --test-dir build-asan --output-on-failure \
  -R 'test_core_job_table|test_offline_exact|test_offline_bounds|test_offline_heuristic|test_adversary_miner|test_differential|test_bugfix_regressions|test_sim_engine|test_sim_portfolio|test_portfolio_allocs|test_golden_trace|test_core_span_tracker|test_engine_errors' \
  2>&1 | tee -a test_output.txt
# The same fuzz smoke under the sanitizers (undefined behavior in an
# oracle or scheduler fails the run even when spans agree).
build-asan/src/fuzz/fjs_fuzz --smoke 2>&1 | tee -a test_output.txt
# Experiment smoke under the sanitizers too: every scheduler, adversary
# and solver gets exercised end-to-end with ASan+UBSan watching. E9 is
# skipped — timing microbenchmarks are meaningless under sanitizers.
cmake --build build-asan --target fjs_experiments
rm -rf results/asan-smoke
build-asan/src/experiments/fjs_experiments --smoke --skip e9 \
  --out results --run-id asan-smoke --quiet 2>&1 | tee -a test_output.txt

# ThreadSanitizer smoke: the task queue and TaskGroup nesting, every test
# that drives parallel_for / parallel_map on a pool (portfolio grid,
# concurrent miner runs, analysis sweeps, fuzz harness) and the experiment
# pipeline under TSan. A race in the pool's group bookkeeping or in a
# parallel caller's per-thread or per-mine state shows up here, not in
# the (deterministic) unit tests.
# E9 is skipped for the same reason as under ASan: timing is meaningless.
cmake --preset tsan
cmake --build build-tsan --target \
  test_support_parallel test_sim_portfolio test_adversary_miner \
  test_analysis test_fuzz_harness fjs_experiments
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  ctest --test-dir build-tsan --output-on-failure \
  -R 'test_support_parallel|test_sim_portfolio|test_adversary_miner|test_analysis$|test_fuzz_harness' \
  2>&1 | tee -a test_output.txt
rm -rf results/tsan-smoke
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  build-tsan/src/experiments/fjs_experiments --smoke --skip e9 \
  --out results --run-id tsan-smoke --quiet 2>&1 | tee -a test_output.txt
# The fuzz battery under TSan as well: the harness fans seeds out with
# parallel_map, and every oracle replays through a PortfolioRunner (the
# thread-local one behind simulate()/simulate_span() included), so state
# shared between worker threads shows up here rather than in the
# deterministic unit tests. (The plain and ASan+UBSan fuzz smokes above
# already run the same battery.)
cmake --build build-tsan --target fjs_fuzz
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  build-tsan/src/fuzz/fjs_fuzz --smoke 2>&1 | tee -a test_output.txt

# Mutation corpus: each scripts/mutants/*.patch plants one bug (in the
# engine's event order and replay, the exact solver's pruning and
# component split, the offline heuristic and instance preparation) in a
# temporary copy of the tree, and the check the patch names must fail on
# it. Fails if any mutant survives: the golden pins and oracles stay
# honest only while a mutant can still break them.
scripts/run_mutants.sh 2>&1 | tee -a test_output.txt

# Trace-export smoke: one experiment with --trace, then validate the
# Chrome-tracing JSON (chrome://tracing / ui.perfetto.dev format) and the
# manifest's telemetry block. --force exercises the overwrite path the
# runner otherwise refuses (see docs/OBSERVABILITY.md).
build/src/experiments/fjs_experiments --only e2 --smoke \
  --out results --run-id trace-smoke --force \
  --trace results/trace-smoke/trace.json --quiet
python3 - <<'EOF' 2>&1 | tee -a test_output.txt
import json
with open("results/trace-smoke/trace.json", encoding="utf-8") as fh:
    doc = json.load(fh)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
for event in events:
    assert event["ph"] == "X", event
    assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event), event
    # Whole microseconds and thread ids, written as exact integers.
    assert all(type(event[k]) is int for k in ("ts", "dur", "tid")), event
assert any(e["name"] == "e2" for e in events), "no e2 span recorded"
with open("results/trace-smoke/manifest.json", encoding="utf-8") as fh:
    manifest = json.load(fh)
telemetry = manifest["telemetry"]
assert telemetry["counters"], telemetry
print("trace smoke OK: %d events, %d counters"
      % (len(events), len(telemetry["counters"])))
EOF

# All sixteen experiments, smoke profile: tables, verdicts, manifest.
# Nonzero exit = a machine-checked paper claim failed. Timing claims are
# made with scripts/ab_compare.py, parent and change on one host.
rm -rf results/smoke
build/src/experiments/fjs_experiments --smoke --out results --run-id smoke \
  2>&1 | tee bench_output.txt

echo "Done. See test_output.txt, bench_output.txt, results/smoke/ and EXPERIMENTS.md."
