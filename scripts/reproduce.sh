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
# changed, not the full suite.
cmake --preset asan-ubsan
cmake --build build-asan --target \
  test_core_job_table test_offline_exact test_offline_bounds \
  test_offline_heuristic test_adversary_miner test_differential \
  test_bugfix_regressions test_sim_engine test_sim_portfolio \
  test_golden_trace test_core_span_tracker test_engine_errors fjs_fuzz
ctest --test-dir build-asan --output-on-failure \
  -R 'test_core_job_table|test_offline_exact|test_offline_bounds|test_offline_heuristic|test_adversary_miner|test_differential|test_bugfix_regressions|test_sim_engine|test_sim_portfolio|test_golden_trace|test_core_span_tracker|test_engine_errors' \
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
# miner, analysis sweeps, fuzz harness) and the experiment pipeline under
# TSan. A race in the pool's group bookkeeping or in a parallel caller's
# per-thread state shows up here, not in the (deterministic) unit tests.
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
# The fuzz battery under TSan as well: every oracle replays through
# PortfolioRunner, whose engine workspaces come from the per-thread
# workspace pool, so a lease or recycling bug under threads shows up here
# rather than in the deterministic unit tests. (The plain and ASan+UBSan
# fuzz smokes above already run the same battery.)
cmake --build build-tsan --target fjs_fuzz
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  build-tsan/src/fuzz/fjs_fuzz --smoke 2>&1 | tee -a test_output.txt

# Allocation gate: a -DFJS_COUNT_ALLOCS=ON build counts every operator
# new. The portfolio tests assert the span-only kernel, and the miner's
# mutate-and-replay loop through it, reach a zero-allocation steady
# state, and the E9 smoke re-emits the allocs_per_sim counter so
# bench_compare's --allocs column warns (non-fatally) if a change
# re-introduces per-simulation allocations.
cmake -B build-allocs -G Ninja -DFJS_COUNT_ALLOCS=ON > /dev/null
cmake --build build-allocs --target test_sim_portfolio fjs_experiments
ctest --test-dir build-allocs --output-on-failure -R 'test_sim_portfolio' \
  2>&1 | tee -a test_output.txt
build-allocs/src/experiments/fjs_experiments --only e9 --smoke \
  --out results --run-id e9-allocs --force --quiet
scripts/bench_compare.py BENCH_allocs.json \
  results/e9-allocs/e9/benchmarks.json --allocs \
  || echo "WARNING: allocs-build bench smoke regressed vs BENCH_allocs.json (noisy single run)"

# Planted-bug drill: a build with -DFJS_PLANTED_TIEBREAK_BUG=ON swaps the
# engine's same-tick completion/arrival priority. The fuzzer MUST catch it
# (via the independent trace validator) and shrink it to a tiny repro —
# this proves the harness detects the class of bug it exists for.
cmake -B build-planted -G Ninja -DFJS_PLANTED_TIEBREAK_BUG=ON > /dev/null
cmake --build build-planted --target fjs_fuzz
if build-planted/src/fuzz/fjs_fuzz --smoke > planted_output.txt 2>&1; then
  echo "ERROR: planted tie-break bug was NOT caught by the fuzzer" \
    | tee -a test_output.txt
  exit 1
fi
echo "planted tie-break bug caught and shrunk, as expected:" \
  | tee -a test_output.txt
head -8 planted_output.txt | tee -a test_output.txt

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
    assert event["ph"] in ("X", "i"), event
    assert {"name", "cat", "ts", "pid", "tid"} <= set(event), event
assert any(e["name"] == "e2" for e in events), "no e2 span recorded"
with open("results/trace-smoke/manifest.json", encoding="utf-8") as fh:
    manifest = json.load(fh)
telemetry = manifest["telemetry"]
assert telemetry["enabled"] and telemetry["counters"], telemetry
print("trace smoke OK: %d events, %d deterministic counters"
      % (len(events), len(telemetry["counters"])))
EOF

# Telemetry-overhead gate: the engine benchmarks must not pay more than
# ~1% for the compiled-in (but quiescent-trace) telemetry layer. Compare
# the -DFJS_TELEMETRY=OFF build (baseline) against the default build on
# the same machine back-to-back; noisy single runs make this a warning,
# never a failure.
cmake -B build-notelemetry -G Ninja -DFJS_TELEMETRY=OFF > /dev/null
cmake --build build-notelemetry --target fjs_experiments
FJS_BENCH_FILTER='BM_EngineThroughput' \
  build-notelemetry/src/experiments/fjs_experiments --only e9 --smoke \
  --out results --run-id e9-notelemetry --force --quiet
FJS_BENCH_FILTER='BM_EngineThroughput' \
  build/src/experiments/fjs_experiments --only e9 --smoke \
  --out results --run-id e9-telemetry-on --force --quiet
scripts/bench_compare.py --threshold 0.01 \
  results/e9-notelemetry/e9/benchmarks.json \
  results/e9-telemetry-on/e9/benchmarks.json \
  2>&1 | tee -a test_output.txt \
  || echo "WARNING: telemetry overhead above the 1% budget on this run" \
       "(noisy single run; rerun back-to-back on an idle machine)" \
    | tee -a test_output.txt

# Fast perf smoke: E9's smoke profile, emitted as JSON and diffed
# against the committed baseline. A >15% drop on this machine is only a
# warning here (single runs are noisy); rerun the full profile
# back-to-back against the baseline before trusting it.
build/src/experiments/fjs_experiments --only e9 --smoke \
  --out results --run-id e9-smoke --force --quiet
scripts/bench_compare.py BENCH_e9.json results/e9-smoke/e9/benchmarks.json \
  || echo "WARNING: bench smoke regressed vs BENCH_e9.json (noisy single run)"

# All sixteen experiments, smoke profile: tables, verdicts, manifest.
# Nonzero exit = a machine-checked paper claim failed. Wall-time trends
# vs the previous smoke run are informational only.
rm -rf results/smoke
build/src/experiments/fjs_experiments --smoke --out results --run-id smoke \
  2>&1 | tee bench_output.txt
if [ -f results/last-smoke-manifest.json ]; then
  scripts/bench_compare.py --manifests \
    results/last-smoke-manifest.json results/smoke/manifest.json \
    | tee -a bench_output.txt
fi
cp results/smoke/manifest.json results/last-smoke-manifest.json

echo "Done. See test_output.txt, bench_output.txt, results/smoke/ and EXPERIMENTS.md."
