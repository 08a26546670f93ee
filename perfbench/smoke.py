#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at tiny size.

    python3 perfbench/smoke.py [--seed N]

For each workload it makes two untraced runs and one traced run with the
same seed (--size tiny, 1 s each) and checks that the result line has
exactly the keys correct/attempted/failed/metrics, that the metrics are
exactly the end-to-end (untraced) or per-layer (traced) metrics of
BENCHMARK.json with their units, that no item failed, and that the output
digest is the same in all three runs. Exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"exit {out.returncode}: {' '.join(cmd)}")
    lines = out.stdout.strip().splitlines()
    kind, provenance = lines[-2].split(" ", 1)
    assert kind == "provenance", lines[-2]
    return json.loads(provenance), json.loads(lines[-1])


def check_result(result, defs, what):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{what}: attempted={result.get('attempted')}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        errors.append(f"{what}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(defs):
        errors.append(f"{what}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(defs) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(defs))}")
    for name, d in defs.items():
        m = metrics.get(name, {})
        if m.get("unit") != d["unit"] or \
                not isinstance(m.get("value"), (int, float)):
            errors.append(f"{what}: {name} = {m}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for i, trace in enumerate((0, 0, 1)):
            what = f"{workload} run {i} (trace {trace})"
            provenance, result = run(workload, args.seed, trace)
            errors += check_result(result, per_layer if trace else end_to_end,
                                   what)
            digests.append(provenance["digest"])
        if len(set(digests)) != 1:
            errors.append(f"{workload}: digests differ {digests}")
        print(f"{workload}: digest {digests[0]}", flush=True)
    for e in errors:
        print("FAIL", e)
    print("smoke: OK" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
