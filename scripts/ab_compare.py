#!/usr/bin/env python3
"""Compare a base revision with the working tree, on this host.

    scripts/ab_compare.py [--base REV] [--pairs N] perfbench WORKLOAD
    scripts/ab_compare.py [--base REV] [--pairs N] experiments -- ARGS...

REV (default HEAD, the parent of uncommitted work) is checked out in a
temporary `git worktree`. Both trees are built from source in a temporary
directory, then N pairs (default 10) run the two sides back to back,
alternating which side goes first. For every metric the report prints the
base's median [Q1, Q3] -> the change's median, the change of the median
(positive = better) and the number of pairs the change won. Ties count for
neither side. Rates (unit 1/s) are better higher, everything else lower.

perfbench: runs `python3 perfbench/run.py --workload WORKLOAD --seed i
--seconds S --trace 0` in each tree, with pair i on seed i for both sides
and a separate CARGO_TARGET_DIR per tree. S is BENCHMARK.json's
run_seconds. The report covers perfbench's end-to-end metrics. A run with
correct=false or failed>0 is flagged and the script exits 1. So does a
pair whose two runs print different provenance digests: both sides ran
the same seed, so their workload outputs must hash alike.

experiments: runs fjs_experiments with ARGS plus --out and --run-id, which
the script supplies. The report covers whole-process wall time and CPU
time (the child's user+sys, from getrusage), each experiment's manifest
wall_ms and every e9/benchmarks.json row when E9 ran. On the first pair,
verdicts.json and every CSV must be byte-identical between the sides,
else the script exits 1 (so does a failing run).

The worktree and all builds and outputs are removed on exit.
"""

import argparse
import filecmp
import json
import math
import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(values, q):
    """Linear interpolation between the closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(name, unit, base, change):
    """One report row from per-pair values (pair i at index i)."""
    higher = unit == "1/s"
    wins = sum(1 for b, c in zip(base, change)
               if (c > b if higher else c < b))
    median, changed = quantile(base, 0.5), quantile(change, 0.5)
    gain = (changed - median) / median if median else math.nan
    return {"name": name, "unit": unit, "median": median,
            "q1": quantile(base, 0.25), "q3": quantile(base, 0.75),
            "change": changed, "gain": gain if higher else -gain,
            "wins": wins, "pairs": len(base)}


def format_row(row):
    return (f"{row['name']:<44} {row['unit']:>4}  {row['median']:10.4g} "
            f"[{row['q1']:.4g}, {row['q3']:.4g}] -> {row['change']:10.4g} "
            f"{100 * row['gain']:+7.1f}%  won {row['wins']}/{row['pairs']}")


def perfbench_metrics(stdout):
    """(metrics, flag) from run.py's output: the last line is the result."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}, "no result line"
    metrics = {name: (m["unit"], m["value"])
               for name, m in result.get("metrics", {}).items()}
    flag = None
    if not result.get("correct") or result.get("failed", 0) > 0:
        flag = (f"correct={str(result.get('correct')).lower()} "
                f"failed={result.get('failed')}")
    return metrics, flag


def perfbench_digest(stdout):
    """The provenance line's output digest, or None when there is none."""
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            try:
                return json.loads(line[len("provenance "):]).get("digest")
            except ValueError:
                return None
    return None


def digest_differences(digests):
    """One line per seed whose base and change digests differ.

    `digests` maps side -> {seed: digest}."""
    base, change = digests.get("base", {}), digests.get("change", {})
    return [f"seed {seed}: base digest {base[seed]}, change digest "
            f"{change[seed]}"
            for seed in sorted(set(base) & set(change))
            if base[seed] != change[seed]]


def e9_metrics(path):
    """items/s per benchmark row, or its time when it counts no items."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh).get("benchmarks", [])
    metrics = {}
    for row in rows:
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") != "median":
                continue
            name = row["run_name"]
        else:
            name = row["name"]
        if "items_per_second" in row:
            metrics["e9:" + name] = ("1/s", row["items_per_second"])
        else:
            metrics["e9:" + name] = (row["time_unit"], row["real_time"])
    return metrics


def run(cmd, cwd, env=None, stdout=subprocess.DEVNULL):
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


def timed_run(cmd, cwd):
    """(result, wall ms, CPU ms) of one child run. The CPU time is the
    user+sys delta of RUSAGE_CHILDREN, which counts every thread of the
    child once it has been waited for."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    done = run(cmd, cwd)
    wall_ms = 1e3 * (time.monotonic() - start)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_ms = 1e3 * (after.ru_utime - before.ru_utime +
                    after.ru_stime - before.ru_stime)
    return done, wall_ms, cpu_ms


class Perfbench:
    def __init__(self, workload, tmp):
        self.workload = workload
        self.tmp = tmp
        bench = os.path.join(ROOT, "BENCHMARK.json")
        seconds = 20
        if os.path.isfile(bench):
            with open(bench, encoding="utf-8") as fh:
                seconds = json.load(fh).get("run_seconds", seconds)
        self.seconds = str(seconds)
        self.digests = {}

    def _run(self, side, tree, seed, seconds, size):
        env = dict(os.environ,
                   CARGO_TARGET_DIR=os.path.join(self.tmp, side + "-target"))
        return run([sys.executable, "perfbench/run.py", "--workload",
                    self.workload, "--seed", str(seed), "--seconds", seconds,
                    "--trace", "0", "--size", size], tree, env,
                   subprocess.PIPE)

    def build(self, side, tree):
        done = self._run(side, tree, 0, "0.1", "tiny")
        if done.returncode != 0:
            sys.exit(f"ab_compare: {side} perfbench build failed:\n"
                     f"{done.stderr[-2000:]}")

    def measure(self, side, tree, pair):
        done = self._run(side, tree, pair, self.seconds, "full")
        metrics, flag = perfbench_metrics(done.stdout)
        if done.returncode != 0:
            flag = f"exit {done.returncode}: {done.stderr[-500:]}"
        self.digests.setdefault(side, {})[pair] = perfbench_digest(
            done.stdout)
        return metrics, flag

    def differences(self):
        """Seeds on which the two sides' output digests differ."""
        return digest_differences(self.digests)


class Experiments:
    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        self.first_outputs = {}

    def _binary(self, side):
        return os.path.join(self.tmp, side + "-build", "src", "experiments",
                            "fjs_experiments")

    def build(self, side, tree):
        out = os.path.join(self.tmp, side + "-build")
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        jobs = str(min(4, multiprocessing.cpu_count()))
        for cmd in (["cmake", "-S", tree, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                    ["cmake", "--build", out, "-j", jobs,
                     "--target", "fjs_experiments"]):
            done = run(cmd, tree, stdout=subprocess.PIPE)
            if done.returncode != 0:
                sys.exit(f"ab_compare: {side} build failed:\n"
                         f"{(done.stdout + done.stderr)[-2000:]}")

    def measure(self, side, tree, pair):
        out = os.path.join(self.tmp, side + "-runs")
        run_dir = os.path.join(out, f"pair{pair}")
        done, wall_ms, cpu_ms = timed_run(
            [self._binary(side)] + self.args +
            ["--out", out, "--run-id", f"pair{pair}"], tree)
        metrics = {"process.wall_ms": ("ms", wall_ms),
                   "process.cpu_ms": ("ms", cpu_ms)}
        flag = None if done.returncode == 0 else (
            f"exit {done.returncode}: {done.stderr[-500:]}")
        manifest = os.path.join(run_dir, "manifest.json")
        if os.path.isfile(manifest):
            with open(manifest, encoding="utf-8") as fh:
                for exp in json.load(fh)["experiments"]:
                    metrics[exp["name"] + ".wall_ms"] = ("ms", exp["wall_ms"])
        e9 = os.path.join(run_dir, "e9", "benchmarks.json")
        if os.path.isfile(e9):
            metrics.update(e9_metrics(e9))
        if pair == 1:
            self.first_outputs[side] = run_dir
        else:
            shutil.rmtree(run_dir, ignore_errors=True)
        return metrics, flag

    def differences(self):
        """verdicts.json and CSVs that differ between the first pair's runs."""
        def outputs(run_dir):
            found = {"verdicts.json"}
            for dirpath, _, files in os.walk(run_dir):
                found.update(os.path.relpath(os.path.join(dirpath, f), run_dir)
                             for f in files if f.endswith(".csv"))
            return found
        base, change = self.first_outputs["base"], self.first_outputs["change"]
        diffs = []
        for rel in sorted(outputs(base) | outputs(change)):
            a, b = os.path.join(base, rel), os.path.join(change, rel)
            if not (os.path.isfile(a) and os.path.isfile(b)
                    and filecmp.cmp(a, b, shallow=False)):
                diffs.append(rel)
        return diffs


def compare(mode, sides, pairs):
    """Runs the pairs; returns (report rows, flagged runs)."""
    for side, tree in sides:
        mode.build(side, tree)
    values = {side: [] for side, _ in sides}
    flags = []
    for pair in range(1, pairs + 1):
        order = sides if pair % 2 else sides[::-1]
        for side, tree in order:
            metrics, flag = mode.measure(side, tree, pair)
            values[side].append(metrics)
            if flag:
                flags.append(f"pair {pair} {side}: {flag}")
    base, change = values["base"], values["change"]
    names = set.intersection(*(set(m) for m in base + change))
    rows = [summarize(name, base[0][name][0], [m[name][1] for m in base],
                      [m[name][1] for m in change])
            for name in sorted(names)]
    return rows, flags


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating base/change pairs (default 10)")
    parser.add_argument("mode", choices=("perfbench", "experiments"))
    parser.add_argument("rest", nargs=argparse.REMAINDER,
                        help="WORKLOAD, or -- and fjs_experiments arguments")
    args = parser.parse_args()
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.mode == "perfbench" and len(rest) != 1:
        parser.error("perfbench takes exactly one WORKLOAD")
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          args.base + "^{commit}"], capture_output=True,
                         text=True)
    if sha.returncode != 0:
        parser.error(f"unknown revision {args.base}")
    sha = sha.stdout.strip()

    tmp = tempfile.mkdtemp(prefix="fjs-ab.")
    worktree = os.path.join(tmp, "base")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        "--quiet", worktree, sha], check=True)
        mode = (Perfbench(rest[0], tmp) if args.mode == "perfbench"
                else Experiments(rest, tmp))
        sides = [("base", worktree), ("change", ROOT)]
        rows, flags = compare(mode, sides, args.pairs)
        diffs = mode.differences()
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        worktree], stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])

    print(f"base {sha[:12]} ({args.base}) vs working tree, {args.pairs} "
          f"alternating pairs, nproc {multiprocessing.cpu_count()}")
    print("metric (base median [Q1, Q3] -> change median, change of the "
          "median, positive = better; pairs the change won)")
    for row in rows:
        print(format_row(row))
    for flag in flags:
        print("FLAGGED " + flag)
    for rel in diffs:
        print("DIFFERS " + rel)
    if not diffs:
        print("first pair: verdicts.json and every CSV byte-identical"
              if args.mode == "experiments"
              else "every pair: the two sides' digests are identical")
    return 1 if flags or diffs else 0


if __name__ == "__main__":
    sys.exit(main())
