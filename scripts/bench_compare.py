#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]

For every benchmark present in both files the script compares
items_per_second when available (higher is better) and falls back to
real_time (lower is better) otherwise. A benchmark regressing by more
than the threshold (default 15%) is reported and the script exits
non-zero, so the committed BENCH_e9.json baseline acts as a gate:

    ./build/src/experiments/fjs_experiments --only e9 --smoke \
        --out results --run-id e9-smoke --quiet
    scripts/bench_compare.py BENCH_e9.json results/e9-smoke/e9/benchmarks.json

With --manifests OLD NEW it additionally prints per-experiment wall-time
trends between two fjs_experiments manifest.json files (warnings only).

Benchmarks present in only one file are reported as added/removed with a
warning but are never fatal, so the gate does not block adding or
retiring benchmarks. Degenerate measurements (zero, negative, NaN or
infinite on either side) print an 'n/a' change plus a non-fatal warning
instead of dividing by zero or reporting an infinite percentage. Pass --json PATH (or --json -) to also emit a
machine-readable summary of the comparison. Single-machine noise easily
reaches a few percent; compare runs taken back-to-back on an otherwise
idle machine before trusting a failure.
"""

import argparse
import json
import math
import re
import sys

# Per-benchmark runtime options google-benchmark appends to the name
# (e.g. "BM_Foo/min_time:0.050"). Stripped before comparing so a smoke
# run with a short MinTime still gates against the full-profile baseline.
_NAME_NOISE = re.compile(r"/(?:min_time|min_warmup_time|repeats|iterations):[^/]+")


def _iter_rows(path):
    """Yields (clean name, bench dict, is_median_aggregate) per JSON row.

    Repetition batteries (->Repetitions(n), often with
    ReportAggregatesOnly) emit aggregate rows named "BM_Foo_median" etc.
    with the plain benchmark name in run_name. The median is the robust
    per-benchmark measurement, so it is surfaced under the plain name and
    preferred over any per-repetition iteration rows also present; the
    mean/stddev/cv aggregates are skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        sys.exit(f"error: cannot read {path}: {err.strerror}")
    except json.JSONDecodeError as err:
        sys.exit(f"error: {path} is not valid benchmark JSON ({err})")
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") != "median":
                continue
            name = bench.get("run_name", bench["name"])
            yield _NAME_NOISE.sub("", name), bench, True
        else:
            yield _NAME_NOISE.sub("", bench["name"]), bench, False


def load_benchmarks(path):
    """Returns {name: (metric_name, value, higher_is_better)}.

    When a benchmark carries both iteration rows and a median aggregate
    (repetitions without ReportAggregatesOnly) the median wins.
    """
    out = {}
    medians = set()
    for name, bench, is_median in _iter_rows(path):
        if not is_median and name in medians:
            continue
        if is_median:
            medians.add(name)
        if "items_per_second" in bench:
            out[name] = ("items_per_second", float(bench["items_per_second"]), True)
        elif "real_time" in bench:
            out[name] = ("real_time", float(bench["real_time"]), False)
    return out


def comparable(value):
    """True when a measurement can serve as a ratio numerator/denominator.

    Zero, negative, NaN and infinite values all produce nonsense (or a
    ZeroDivisionError / an inf% change) when fed into value/other - 1.0,
    so degenerate rows are reported as warnings instead of compared.
    """
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and value > 0


def fractional_change(base_value, curr_value, higher_is_better):
    """Signed fractional change where negative always means 'regressed'.

    Returns None when either side is degenerate (see `comparable`) —
    callers print such rows as 'n/a' warnings rather than dividing by
    zero or reporting an infinite percentage.
    """
    if not comparable(base_value) or not comparable(curr_value):
        return None
    if higher_is_better:
        # Fractional change in throughput; negative = regression.
        return curr_value / base_value - 1.0
    # Lower time is better; negative change = regression.
    return base_value / curr_value - 1.0


def compare_rows(base, curr, threshold):
    """Pure comparison of two load_benchmarks() maps.

    Returns (rows, warnings): rows is a list of dicts with name/metric/
    baseline/current/change/regressed where change is None for degenerate
    measurements (never counted as a regression), and warnings is a list
    of human-readable strings for rows that could not be compared.
    """
    rows = []
    warnings = []
    for name in sorted(set(base) & set(curr)):
        base_metric, base_value, higher_is_better = base[name]
        curr_metric, curr_value, _ = curr[name]
        if base_metric != curr_metric:
            warnings.append(
                f"{name}: metric changed ({base_metric} -> {curr_metric}); "
                "not compared")
            continue
        change = fractional_change(base_value, curr_value, higher_is_better)
        if change is None:
            warnings.append(
                f"{name}: degenerate {base_metric} (baseline {base_value!r},"
                f" current {curr_value!r}); not compared")
        regressed = change is not None and change < -threshold
        rows.append({
            "name": name,
            "metric": base_metric,
            "baseline": base_value,
            "current": curr_value,
            "change": change,
            "regressed": regressed,
        })
    return rows, warnings


def geomean_speedup(rows):
    """Geometric-mean speedup factor over the comparable rows.

    Each row contributes 1 + change (its speedup factor: >1 means the
    current run is better on that row's metric, regardless of whether the
    metric is throughput or time). Returns None when no row is
    comparable; degenerate rows are excluded rather than poisoning the
    mean.
    """
    factors = [1.0 + r["change"] for r in rows if r["change"] is not None]
    if not factors:
        return None
    return math.exp(sum(math.log(f) for f in factors) / len(factors))


def manifest_trend_rows(old, new, slowdown):
    """Pure wall-time trend over two {name: record} manifest maps.

    Returns (rows, warnings); a row's change is None (with a warning)
    when either wall time is missing or degenerate.
    """
    rows = []
    warnings = []
    for name in sorted(set(old) & set(new)):
        old_ms, new_ms = old[name].get("wall_ms"), new[name].get("wall_ms")
        change = fractional_change(old_ms, new_ms,
                                   higher_is_better=False)
        if change is None:
            warnings.append(
                f"{name}: wall time unavailable or degenerate "
                f"(old {old_ms!r}, new {new_ms!r}); not compared")
            rows.append((name, old_ms, new_ms, None, False))
            continue
        # For display keep the raw time ratio (positive = slower).
        ratio_change = new_ms / old_ms - 1.0
        rows.append((name, old_ms, new_ms, ratio_change,
                     new_ms > old_ms * slowdown))
    return rows, warnings


def compare_manifests(old_path, new_path, slowdown=1.5):
    """Prints wall-time trends between two runner manifests.

    Wall times on a shared machine are noisy, so this never fails the
    gate; it exists to surface gross slowdowns (default: >1.5x) between
    smoke runs early, next to the E9 throughput gate.
    """
    def load(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: cannot read manifest {path}: {err}")
            return None
        return {e["name"]: e for e in doc.get("experiments", [])}

    old, new = load(old_path), load(new_path)
    if old is None or new is None:
        return
    if not set(old) & set(new):
        print("warning: manifests share no experiments; nothing to compare")
        return
    print(f"experiment wall times ({old_path} -> {new_path}):")
    rows, warnings = manifest_trend_rows(old, new, slowdown)
    slow = []
    for name, old_ms, new_ms, change, slower in rows:
        if change is None:
            print(f"  {name:<6} {'n/a':>10} -> {'n/a':>10} (not compared)")
            continue
        flag = ""
        if slower:
            flag = "  SLOWER"
            slow.append(name)
        print(f"  {name:<6} {old_ms:>10.1f} ms -> {new_ms:>10.1f} ms "
              f"({change:+.1%}){flag}")
    for message in warnings:
        print(f"warning: {message}")
    if slow:
        print(f"warning: {len(slow)} experiment(s) ran >{slowdown:.1f}x "
              f"slower than the previous manifest: {', '.join(slow)} "
              "(informational; rerun on an idle machine before acting)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="baseline benchmark JSON")
    parser.add_argument("current", nargs="?", help="current benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="fractional regression that fails the gate (default 0.15)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write a machine-readable comparison summary to PATH "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--manifests",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="also compare per-experiment wall times from two "
        "fjs_experiments manifest.json files (warnings only, never fatal)",
    )
    args = parser.parse_args()

    if args.manifests:
        compare_manifests(*args.manifests)
    if args.baseline is None or args.current is None:
        if args.manifests:
            return 0
        parser.error("BASELINE and CURRENT benchmark JSON files are "
                     "required unless --manifests is given")

    base = load_benchmarks(args.baseline)
    curr = load_benchmarks(args.current)

    rows, warnings = compare_rows(base, curr, args.threshold)
    regressions = [r["name"] for r in rows if r["regressed"]]

    width = max((len(r["name"]) for r in rows), default=4)
    print(f"{'benchmark':<{width}}  {'metric':<16}  {'baseline':>12}  "
          f"{'current':>12}  {'change':>8}")
    for row in rows:
        flag = "  REGRESSION" if row["regressed"] else ""
        change = ("     n/a" if row["change"] is None
                  else f"{row['change']:>+7.1%}")
        print(f"{row['name']:<{width}}  {row['metric']:<16}  "
              f"{row['baseline']:>12.4g}  {row['current']:>12.4g}  "
              f"{change}{flag}")
    geomean = geomean_speedup(rows)
    if geomean is not None:
        print(f"{'geomean speedup':<{width}}  {'':<16}  {'':>12}  "
              f"{geomean:>11.3f}x  {geomean - 1.0:>+7.1%}")
    for message in warnings:
        print(f"warning: {message}")

    # One-sided benchmarks: the set changed (benchmark added or retired).
    # Worth a warning — a rename silently drops a gate — but never fatal.
    removed = sorted(set(base) - set(curr))
    added = sorted(set(curr) - set(base))
    if removed:
        print(f"warning: {len(removed)} benchmark(s) removed since the "
              f"baseline (not compared): {', '.join(removed)}")
    if added:
        print(f"warning: {len(added)} benchmark(s) added since the "
              f"baseline (not compared): {', '.join(added)}")

    if args.json:
        summary = {
            "baseline": args.baseline,
            "current": args.current,
            "threshold": args.threshold,
            "compared": len(rows),
            "regressions": regressions,
            "geomean_speedup": geomean,
            "added": added,
            "removed": removed,
            "benchmarks": rows,
        }
        if args.json == "-":
            json.dump(summary, sys.stdout, indent=2)
            print()
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2)
                fh.write("\n")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%} "
          f"({len(rows)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
