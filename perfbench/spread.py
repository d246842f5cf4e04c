#!/usr/bin/env python3
"""Run-to-run spread and determinism checks for the burstq benchmark.

    python3 perfbench/spread.py spread --workload W --seeds 1-10 [--sets 2]
        Runs the benchmark once per seed (--trace 0) and prints, for every
        end-to-end metric, the median and the interquartile range as a
        share of the median (statistics.quantiles(values, n=4)) next to the
        metric's bound from BENCHMARK.json.  With --sets N the seeds run N
        times, one set after the other, and each later set also prints how
        far its median moved from the first set's, as a share of the first
        (positive = worse).  Exits 1 when a spread other than setup_s, or a
        move of any median toward worse, exceeds the metric's bound.

    python3 perfbench/spread.py determinism --workload W --seed N
        Runs the seed twice untraced and once traced and checks that the
        deterministic outputs (the ledger's "deterministic:" line: PMs used,
        CVR, migrations, active PMs, failures) are identical.  Exits 1 when
        they differ.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"run failed: {' '.join(cmd)}")
    det = [l for l in lines if l.startswith("# deterministic:")]
    return json.loads(lines[-1]), det[0] if det else None


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(args, spec):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        result, _ = run(args.workload, seed, spec["run_seconds"], 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} done", file=sys.stderr)
    return values


def spread(args, spec):
    bad = False
    first = None
    for index in range(args.sets):
        values = run_set(args, spec)
        print(f"set {index + 1}: {'metric':22} {'median':>14} "
              f"{'iqr/median':>11} {'moved':>8} {'bound':>6}")
        medians = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            medians[m["name"]] = med
            share = (q3 - q1) / med if med else float("inf")
            over = share > m["bound"] and m["name"] != "setup_s"
            moved = ""
            if first is not None:
                base = first[m["name"]]
                shift = (med - base) / base if base else 0.0
                if m["better"] == "higher":
                    shift = -shift
                moved = f"{shift:+8.4f}"
                over |= shift > m["bound"]
            bad |= over
            flag = "  OVER" if over else ("  >1/3" if share > m["bound"] / 3
                                          else "")
            print(f"       {m['name']:22} {med:14.6g} {share:11.4f} "
                  f"{moved:>8} {m['bound']:6.2f}{flag}")
        if first is None:
            first = medians
    return 1 if bad else 0


def determinism(args, spec):
    seconds = spec["run_seconds"]
    first = run(args.workload, args.seed, seconds, 0)[1]
    second = run(args.workload, args.seed, seconds, 0)[1]
    traced = run(args.workload, args.seed, seconds, 1)[1]
    print(f"untraced #1: {first}\nuntraced #2: {second}\ntraced:      "
          f"{traced}")
    same = first is not None and first == second == traced
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["spread", "determinism"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.exit(spread(args, spec) if args.mode == "spread"
             else determinism(args, spec))


if __name__ == "__main__":
    main()
