#!/usr/bin/env python3
"""Perf-regression gate over the committed bench trajectory.

Compares the JSON outputs of the bench harnesses (BENCH_placement.json,
BENCH_trace.json, BENCH_obs.json) against the committed trajectory file
(bench_out/TRAJECTORY.json) and fails when a gated metric regressed past
its per-metric relative tolerance.

Noise model: pass several --current directories (the same bench invoked
N times); the gate takes the best value per metric (min for
direction=lower, max for direction=higher) before comparing, so a single
scheduler hiccup on a shared CI runner cannot fail the gate.  Tolerances
are per-metric: tight for deterministic counts and byte sizes, loose for
wall-clock timings.

Usage:
  scripts/bench_gate.py check  --trajectory bench_out/TRAJECTORY.json \
      --current DIR [--current DIR ...]
  scripts/bench_gate.py update --trajectory bench_out/TRAJECTORY.json \
      --current DIR [--current DIR ...]

`check` prints a per-metric delta table and exits 1 on any regression
(or any gated metric missing from the current results).  `update`
rewrites the trajectory's committed values from the current best values,
keeping each metric's direction and tolerance.
"""

import argparse
import json
import os
import re
import sys

SCHEMA = "burstq.bench.trajectory/v1"


def fail(msg):
    print("bench_gate: error: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        fail("bad JSON in %s: %s" % (path, e))


_PATH_TOKEN = re.compile(r"([^.\[\]]+)|\[(\d+)\]")


def lookup(doc, path):
    """Resolves a dotted path with [i] list indices ("formats.btrc.bytes",
    "drivers[2].seconds").  Returns None when any step is missing."""
    cur = doc
    for m in _PATH_TOKEN.finditer(path):
        key, idx = m.group(1), m.group(2)
        if key is not None:
            if not isinstance(cur, dict) or key not in cur:
                return None
            cur = cur[key]
        else:
            i = int(idx)
            if not isinstance(cur, list) or i >= len(cur):
                return None
            cur = cur[i]
    return cur


def best_current(spec, current_dirs):
    """Best observed value for one metric across N bench runs, or None."""
    values = []
    for d in current_dirs:
        path = os.path.join(d, spec["file"])
        if not os.path.exists(path):
            continue
        v = lookup(load_json(path), spec["path"])
        if isinstance(v, bool):  # bool is an int subclass; reject it
            continue
        if isinstance(v, (int, float)):
            values.append(float(v))
    if not values:
        return None
    return min(values) if spec["direction"] == "lower" else max(values)


def check_metric(spec, current):
    """Returns (verdict, delta_frac).  delta > 0 means worse."""
    committed = float(spec["value"])
    tol = float(spec["rel_tol"])
    if committed == 0.0:
        # Degenerate committed value: only an exact match passes.
        return ("ok" if current == 0.0 else "REGRESSION", 0.0)
    if spec["direction"] == "lower":
        delta = current / committed - 1.0
    else:
        delta = 1.0 - current / committed
    if delta > tol:
        return ("REGRESSION", delta)
    if delta < -tol:
        return ("improved", delta)
    return ("ok", delta)


def cmd_check(trajectory, current_dirs):
    metrics = trajectory.get("metrics", [])
    if not metrics:
        fail("trajectory has no metrics")
    rows = []
    failures = 0
    improved = 0
    for spec in metrics:
        name = "%s:%s" % (spec["file"], spec["path"])
        current = best_current(spec, current_dirs)
        if current is None:
            rows.append((name, spec["value"], "MISSING", "-",
                         spec["rel_tol"], "REGRESSION"))
            failures += 1
            continue
        verdict, delta = check_metric(spec, current)
        if verdict == "REGRESSION":
            failures += 1
        if verdict == "improved":
            improved += 1
        rows.append((name, spec["value"], "%.6g" % current,
                     "%+.1f%%" % (delta * 100.0), spec["rel_tol"], verdict))

    header = ("metric", "committed", "current", "worse-by", "tol", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    print(fmt % header)
    print(fmt % tuple("-" * w for w in widths))
    for r in rows:
        print(fmt % tuple(str(c) for c in r))
    print()
    print("bench_gate: %d metric(s), %d regression(s), %d improved, "
          "runs-per-metric=%d"
          % (len(metrics), failures, improved, len(current_dirs)))
    if failures:
        print("bench_gate: FAIL — see REGRESSION rows above; if the change "
              "is intentional, re-seed with `scripts/bench_gate.py update`",
              file=sys.stderr)
        return 1
    if improved:
        print("bench_gate: PASS (some metrics improved past tolerance — "
              "consider re-seeding the trajectory)")
    else:
        print("bench_gate: PASS")
    return 0


def cmd_update(trajectory, trajectory_path, current_dirs):
    updated = 0
    for spec in trajectory.get("metrics", []):
        current = best_current(spec, current_dirs)
        if current is None:
            fail("metric %s:%s missing from current results; cannot seed"
                 % (spec["file"], spec["path"]))
        spec["value"] = current
        updated += 1
    with open(trajectory_path, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print("bench_gate: re-seeded %d metric(s) into %s"
          % (updated, trajectory_path))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["check", "update"])
    ap.add_argument("--trajectory", required=True,
                    help="committed trajectory JSON")
    ap.add_argument("--current", action="append", required=True,
                    help="directory with BENCH_*.json from one bench run; "
                         "repeat for min-of-N noise rejection")
    args = ap.parse_args()

    trajectory = load_json(args.trajectory)
    if trajectory.get("schema") != SCHEMA:
        fail("%s: expected schema %s, got %r"
             % (args.trajectory, SCHEMA, trajectory.get("schema")))
    for spec in trajectory.get("metrics", []):
        for key in ("file", "path", "direction", "rel_tol", "value"):
            if key not in spec:
                fail("metric %r lacks %r" % (spec, key))
        if spec["direction"] not in ("lower", "higher"):
            fail("metric %s: direction must be lower|higher" % spec["path"])

    if args.command == "check":
        sys.exit(cmd_check(trajectory, args.current))
    sys.exit(cmd_update(trajectory, args.trajectory, args.current))


if __name__ == "__main__":
    main()
