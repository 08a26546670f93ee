#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and summarizes each metric.

    python3 perfbench/repeat.py --workload certify [--runs 10] [--sets 2]
        [--seed0 1] [--seconds S] [--trace 0|1]

Run i of a set uses seed seed0+i; every set reuses the same seeds, so the
digests of equal seeds must agree across sets. For each metric it prints
the median, the quartiles (statistics.quantiles(n=4)) and the spread
(Q3 - Q1) / median; with --trace 0 it compares the spread with the metric's
bound in BENCHMARK.json, and with two or more sets also each later set's
median shift against the first set, in the metric's "worse" direction.
Untraced runs also report their unscaled figures (before the host-speed
calibration); those rows are for information and have no bound.
Exits 1 when a spread (setup_s excepted) or a shift exceeds its bound, or
when any run fails or digests disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    lines = out.stdout.strip().splitlines()
    provenance = json.loads(lines[-2].split(" ", 1)[1])
    return provenance, json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    defs = {m["name"]: m for m in
            spec["per_layer" if args.trace else "end_to_end"]}

    ok = True
    digests = {}
    sets = []
    unscaled_sets = []
    for s in range(args.sets):
        values = {name: [] for name in defs}
        unscaled = {name: [] for name in defs}
        for i in range(args.runs):
            seed = args.seed0 + i
            provenance, result = run_once(args.workload, seed, seconds,
                                          args.trace)
            if not result["correct"] or result["failed"]:
                print(f"set {s} seed {seed}: {result['failed']} failures")
                ok = False
            if digests.setdefault(seed, provenance["digest"]) != \
                    provenance["digest"]:
                print(f"seed {seed}: digest changed between sets")
                ok = False
            for name in defs:
                values[name].append(result["metrics"][name]["value"])
                if "unscaled" in provenance:
                    unscaled[name].append(provenance["unscaled"][name])
            print(f"set {s} seed {seed}: items={provenance['items']} " +
                  " ".join(f"{n}={result['metrics'][n]['value']:.6g}"
                           for n in defs), flush=True)
        sets.append(values)
        unscaled_sets.append(unscaled)

    print(f"\n{args.workload}: {args.runs} runs x {args.sets} sets, "
          f"{seconds:g} s each")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6} {'shift':>7}")
    for name, d in defs.items():
        bound = d.get("bound")
        base = None
        for s, values in enumerate(sets):
            med, q1, q3, rel = spread(values[name])
            shift = ""
            if base is None:
                base = med
            elif bound is not None and base:
                worse = (med - base) / base
                if d["better"] == "higher":
                    worse = -worse
                shift = f"{worse:+.3f}"
                ok &= worse <= bound
            if bound is not None and name != "setup_s":
                ok &= rel <= bound
            label = name if s == 0 else f"  set {s}"
            print(f"{label:34} {d['unit']:6} {med:12.6g} {q1:12.6g}"
                  f" {q3:12.6g} {rel:7.3f} "
                  f"{'' if bound is None else bound:>6} {shift:>7}")
            if unscaled_sets[s][name]:
                med, q1, q3, rel = spread(unscaled_sets[s][name])
                print(f"{'    unscaled':34} {d['unit']:6} {med:12.6g}"
                      f" {q1:12.6g} {q3:12.6g} {rel:7.3f}")
    print("OK" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
