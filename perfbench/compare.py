#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    # Ten untraced runs per workload, one seed each, saved as JSON files:
    python3 perfbench/compare.py collect --out runs/parent --seeds 1-10
    # Spread of one set: (Q3 - Q1) / median per workload and metric:
    python3 perfbench/compare.py spread runs/parent
    # Parent against change (or the same code twice), paired by seed:
    python3 perfbench/compare.py diff runs/parent runs/change

`diff` prints, for every workload and end-to-end metric, each side's
median and quartiles, the share of seed-paired runs the change won, and a
verdict. The rules follow the benchmark's contract (README.md):

  better      the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound from BENCHMARK.json;
  unresolved  either side's spread is wider than the bound, unless every
              change run reads better than every parent run;
  unchanged   none of the above.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Seeds used while a change is written, and seeds held out to re-check a
# claimed gain on inputs the change was not tuned on.
DEFAULT_SEEDS = "1-10"
HELD_OUT_SEEDS = "1001-1010"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args):
    """Untraced runs of run_seconds each: the only kind diff compares."""
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    failures = 0
    for workload in workloads:
        os.makedirs(os.path.join(args.out, workload), exist_ok=True)
        for seed in parse_seeds(HELD_OUT_SEEDS if args.held_out else args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and lines
            if not ok:
                failures += 1
            print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
            if lines:
                result = json.loads(lines[-1])
                result["seed"] = seed
                name = f"seed-{seed}.json"
                with open(os.path.join(args.out, workload, name), "w") as f:
                    json.dump(result, f, indent=1)
    return 1 if failures else 0


def load_runs(directory):
    """{workload: {seed: result}} for the runs under `directory`."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        path = os.path.join(directory, workload)
        if not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                with open(os.path.join(path, name)) as f:
                    result = json.load(f)
                runs.setdefault(workload, {})[result["seed"]] = result
    return runs


def failed(result):
    return not result["correct"] or result["failed"] > 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(args):
    spec = load_spec()
    worst = 0.0
    for workload, by_seed in load_runs(args.runs).items():
        print(f"{workload} ({len(by_seed)} runs)")
        bad = [s for s, r in by_seed.items() if failed(r)]
        if bad:
            print(f"  FAILED runs, left out: seeds {bad}")
        good = [r for r in by_seed.values() if not failed(r)]
        if not good:
            continue
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in good]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share <= m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"  {m['name']:<15} median {med:14.6g}  IQR/median {share:8.4f}"
                  f"  bound {m['bound']:.2f}{flag}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    return 0


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = -sign * (c_med - b_med) / b_med if b_med else 0.0
    spread_ = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                  (c_q3 - c_q1) / c_med if c_med else 0.0)
    gain = win_share >= 0.9 and abs(c_med - b_med) > (b_q3 - b_q1)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if all_better and gain:
        v = "better"
    elif spread_ > bound:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif gain:
        v = "better"
    else:
        v = "unchanged"
    return (b_q1, b_med, b_q3), (c_q1, c_med, c_q3), win_share, v


def diff(args):
    spec = load_spec()
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    status = 0
    print(f"{'workload':<16} {'metric':<14} {'base median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>5}  verdict")
    for workload in sorted(set(base_runs) | set(change_runs)):
        b_runs, c_runs = base_runs.get(workload, {}), change_runs.get(workload, {})
        seeds = sorted(set(b_runs) & set(c_runs))
        if not seeds:
            print(f"{workload:<16} no seed-paired runs")
            status = 1
            continue
        for side, runs in (("base", b_runs), ("change", c_runs)):
            bad = [s for s in seeds if failed(runs[s])]
            if bad:
                print(f"{workload:<16} {side} has failed runs, left out: seeds {bad}")
                status = 1
        seeds = [s for s in seeds if not failed(b_runs[s]) and not failed(c_runs[s])]
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            base = [b_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            change = [c_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            b, c, won, v = verdict(base, change, m["better"], m["bound"])
            if v in ("worse", "unresolved"):
                status = 1
            print(f"{workload:<16} {m['name']:<14} "
                  f"{b[1]:>14.6g} [{b[0]:.6g}, {b[2]:.6g}]".ljust(68) +
                  f"{c[1]:>14.6g} [{c[0]:.6g}, {c[2]:.6g}]".ljust(37) +
                  f"{won:5.2f}  {v}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark over seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default=DEFAULT_SEEDS, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--held-out", action="store_true",
                   help=f"use the held-out seeds {HELD_OUT_SEEDS}")
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload in BENCHMARK.json")
    p = sub.add_parser("spread", help="IQR/median of each metric in one set")
    p.add_argument("runs")
    p = sub.add_parser("diff", help="compare two sets, paired by seed")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args()
    return {"collect": collect, "spread": spread, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
