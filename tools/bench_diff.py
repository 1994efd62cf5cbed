#!/usr/bin/env python3
"""Diff two google-benchmark JSON captures and flag timing regressions.

Used by the `bench-diff` job of .github/workflows/nightly-bench.yml to
compare tonight's BENCH_*.json capture against the previous successful
run's artifact (or, when none exists yet, against the committed
bench/BENCH_baseline.json seed, in advisory mode).

  bench_diff.py --baseline PATH --current PATH [--threshold 0.20]
                [--mem-threshold 0.25] [--advisory] [--summary FILE]

PATH may be a single JSON file or a directory; directories are searched
recursively for *.json files and every file's "benchmarks" array is
pooled. Benchmarks are keyed by run name (e.g. "BM_ParallelTwoKSwap/4/
real_time"); when a capture was taken with --benchmark_repetitions the
median aggregate is preferred, then the mean, then the raw iteration.

Besides real_time, memory/allocation counters attached to a benchmark
(names ending in "_bytes" -- sc_peak_bytes, peak_memory_bytes -- or
starting with "allocs") are diffed with their own
ADVISORY threshold (--mem-threshold): growth past it emits a ::warning
annotation and a summary row but never fails the gate, since byte
high-water marks are configuration-sensitive in a way wall time is not.

Exit status: 1 when any benchmark present on both sides regressed by more
than --threshold (relative real_time), 0 otherwise. --advisory always
exits 0 (used when the baseline is the committed seed, whose absolute
numbers come from different hardware). Emits GitHub workflow annotations
(::error / ::notice / ::warning) and, with --summary (defaulting to
$GITHUB_STEP_SUMMARY), a markdown table.
"""

import argparse
import json
import os
import sys
from pathlib import Path

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Aggregate preference: lower rank wins for the same run name.
_KIND_RANK = {"median": 0, "mean": 1, "raw": 2}

# Keys of a benchmark entry that are bookkeeping, not user counters.
_RESERVED_KEYS = {
    "name", "run_name", "run_type", "family_index", "per_family_instance_index",
    "repetitions", "repetition_index", "threads", "iterations", "real_time",
    "cpu_time", "time_unit", "aggregate_name", "aggregate_unit", "label",
    "error_occurred", "error_message", "items_per_second", "bytes_per_second",
}


def is_memory_counter(key):
    """True for the counters the memory gate watches: byte high-water
    marks and allocation counts."""
    return key.endswith("_bytes") or key.startswith("allocs")


def collect_files(path):
    """Yields JSON files under `path` (a file, or a directory searched
    recursively -- artifact downloads nest captures one directory deep)."""
    p = Path(path)
    if p.is_file():
        yield p
        return
    if p.is_dir():
        yield from sorted(p.rglob("*.json"))
        return
    raise FileNotFoundError(f"no such file or directory: {path}")


def load_benchmarks(path):
    """Returns ({run_name: real_time_ns}, {errored run_name},
    {run_name: {counter: value}}) pooled over every capture file. Errored
    entries (e.g. a SkipWithError from the in-loop determinism assertions)
    are reported separately so the gate can fail on them -- the binary
    itself still exits 0. The third map holds the memory/allocation
    counters (is_memory_counter) of the preferred aggregate."""
    chosen = {}  # name -> (rank, time_ns, {counter: value})
    errored = set()
    for file in collect_files(path):
        try:
            with open(file, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (json.JSONDecodeError, OSError) as e:
            print(f"::warning::bench_diff: skipping unreadable {file}: {e}")
            continue
        for entry in doc.get("benchmarks", []):
            if entry.get("error_occurred"):
                errored.add(entry.get("run_name") or entry.get("name"))
                continue
            name = entry.get("run_name") or entry.get("name")
            if name is None or "real_time" not in entry:
                continue
            kind = (entry.get("aggregate_name", "raw")
                    if entry.get("run_type") == "aggregate" else "raw")
            if kind not in _KIND_RANK:
                continue  # stddev/cv/min/max are not timings to compare
            unit = _TIME_UNIT_NS.get(entry.get("time_unit", "ns"))
            if unit is None:
                continue
            time_ns = float(entry["real_time"]) * unit
            counters = {
                key: float(value)
                for key, value in entry.items()
                if key not in _RESERVED_KEYS and is_memory_counter(key)
                and isinstance(value, (int, float))
            }
            rank = _KIND_RANK[kind]
            prev = chosen.get(name)
            if prev is None or rank < prev[0]:
                chosen[name] = (rank, time_ns, counters)
    times = {name: t for name, (_, t, _) in chosen.items()}
    counters = {name: c for name, (_, _, c) in chosen.items() if c}
    return times, errored, counters


def format_ms(ns):
    return f"{ns / 1e6:.3f}ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="previous capture: JSON file or directory")
    parser.add_argument("--current", required=True,
                        help="new capture: JSON file or directory")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative real_time increase that fails the "
                             "run (default 0.20 = 20%%)")
    parser.add_argument("--mem-threshold", type=float, default=0.25,
                        help="relative growth of a memory/allocation "
                             "counter (*_bytes, allocs*) that emits an "
                             "advisory warning (default 0.25 = 25%%); "
                             "never fails the run")
    parser.add_argument("--advisory", action="store_true",
                        help="annotate but always exit 0 (seed baselines "
                             "from different hardware)")
    parser.add_argument("--summary",
                        default=os.environ.get("GITHUB_STEP_SUMMARY"),
                        help="markdown summary file (default: "
                             "$GITHUB_STEP_SUMMARY)")
    args = parser.parse_args()

    baseline, _, baseline_mem = load_benchmarks(args.baseline)
    current, current_errors, current_mem = load_benchmarks(args.current)
    if not baseline:
        print(f"::warning::bench_diff: no benchmarks in baseline "
              f"{args.baseline}")
    if not current:
        print(f"::error::bench_diff: no benchmarks in current capture "
              f"{args.current}")
        return 0 if args.advisory else 1

    shared = sorted(set(baseline) & set(current))
    only_old = sorted(set(baseline) - set(current))
    only_new = sorted(set(current) - set(baseline))

    rows = []
    regressions = []
    for name in shared:
        old, new = baseline[name], current[name]
        delta = (new - old) / old if old > 0 else 0.0
        status = "ok"
        if delta > args.threshold:
            status = "REGRESSION"
            regressions.append((name, old, new, delta))
        elif delta < -args.threshold:
            status = "improved"
        rows.append((name, old, new, delta, status))

    for name, old, new, delta, status in rows:
        line = (f"{name}: {format_ms(old)} -> {format_ms(new)} "
                f"({delta:+.1%})")
        if status == "REGRESSION":
            print(f"::error::bench regression: {line} exceeds "
                  f"{args.threshold:.0%} threshold")
        elif status == "improved":
            print(f"::notice::bench improvement: {line}")
        else:
            print(f"bench_diff: {line}")
    # An added benchmark is invisible to the regression gate until the
    # next night anchors it -- announce it loudly instead of burying it
    # in the log, so a rename (one added + one removed) reads as a pair.
    for name in only_new:
        print(f"::warning::bench_diff: benchmark added: {name} "
              f"({format_ms(current[name])}, no baseline to diff against)")

    # Memory/allocation counters: advisory only. Byte high-water marks and
    # allocation counts move with configuration (thread counts, graph scale)
    # rather than hardware noise, so growth is worth a loud warning -- but
    # they must not wedge the nightly gate the way a timing regression
    # does.
    mem_rows = []
    for name in shared:
        old_counters = baseline_mem.get(name, {})
        new_counters = current_mem.get(name, {})
        for key in sorted(set(old_counters) & set(new_counters)):
            old, new = old_counters[key], new_counters[key]
            if old == 0 and new == 0:
                continue
            delta = (new - old) / old if old > 0 else float("inf")
            flagged = delta > args.mem_threshold
            mem_rows.append((name, key, old, new, delta, flagged))
            if flagged:
                grew = (f"{old:,.3g} -> {new:,.3g}" if old > 0
                        else f"0 -> {new:,.3g}")
                print(f"::warning::bench memory growth: {name} {key}: "
                      f"{grew} exceeds {args.mem_threshold:.0%} advisory "
                      f"threshold")
    # An errored or vanished benchmark is a gate failure, not a skip: the
    # in-loop determinism assertions surface exactly this way, and a
    # silently dropped benchmark would read as "no regression".
    failures = len(regressions)
    for name in sorted(current_errors):
        print(f"::error::bench_diff: {name} reported an error "
              f"(SkipWithError) in tonight's capture")
        failures += 1
    missing = [name for name in only_old if name not in current_errors]
    for name in missing:
        print(f"::error::bench_diff: {name} disappeared from the capture "
              f"(present in baseline)")
        failures += 1

    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write("## bench-diff\n\n")
            mode = " (advisory: seed baseline)" if args.advisory else ""
            f.write(f"{len(shared)} benchmarks compared, "
                    f"{len(regressions)} regressions over "
                    f"{args.threshold:.0%}{mode}.\n\n")
            f.write("| benchmark | baseline | current | delta | |\n")
            f.write("|---|---:|---:|---:|---|\n")
            for name, old, new, delta, status in rows:
                marker = {"REGRESSION": "🔺", "improved": "✅"}.get(status, "")
                f.write(f"| `{name}` | {format_ms(old)} | {format_ms(new)} "
                        f"| {delta:+.1%} | {marker} |\n")
            for name in only_new:
                f.write(f"| `{name}` | — | {format_ms(current[name])} "
                        f"| new | |\n")
            if only_new or missing:
                f.write("\n### added / removed benchmarks\n\n")
                f.write("Renames show up as one added + one removed row; "
                        "a removal fails the gate until a rebaseline "
                        "dispatch acknowledges it.\n\n")
                for name in only_new:
                    f.write(f"- ➕ added: `{name}` "
                            f"({format_ms(current[name])}, no baseline)\n")
                for name in missing:
                    f.write(f"- ❌ removed: `{name}` (present in baseline, "
                            f"missing from tonight's capture)\n")
            flagged_mem = [row for row in mem_rows if row[5]]
            if flagged_mem:
                f.write("\n### memory/allocation counters (advisory, "
                        f"threshold {args.mem_threshold:.0%})\n\n")
                f.write("| benchmark | counter | baseline | current "
                        "| delta |\n")
                f.write("|---|---|---:|---:|---:|\n")
                for name, key, old, new, delta, _ in flagged_mem:
                    shown = ("∞" if delta == float("inf")
                             else f"{delta:+.1%}")
                    f.write(f"| `{name}` | `{key}` | {old:,.3g} "
                            f"| {new:,.3g} | {shown} |\n")

    if failures and not args.advisory:
        print(f"bench_diff: FAIL — {len(regressions)} regression(s) over "
              f"{args.threshold:.0%}, {len(current_errors)} errored, "
              f"{len(missing)} missing", file=sys.stderr)
        return 1
    print("bench_diff: OK" + (" (advisory)" if args.advisory else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
