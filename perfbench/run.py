#!/usr/bin/env python3
"""Build and run the burstq end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark binary) in
.bench_build/; later calls rebuild only what changed.  Build output goes
to stderr.  The binary's ledger is relayed to stdout, and the last line is
one JSON object holding exactly the metrics BENCHMARK.json lists for the
mode: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Exits nonzero when a correctness check fails, when the binary
reports a metric set that does not match BENCHMARK.json, or when the
library sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "burstq_perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def quiet(cmd, what):
    """Runs a build step, showing its output on stderr only on failure.
    Compiler temporaries go to .bench_build/tmp, inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=dict(os.environ, TMPDIR=str(tmp)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(what)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    # A build tree configured for another checkout path cannot be reused.
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text(errors="replace"):
        subprocess.run(["cmake", "-E", "rm", "-rf", str(BUILD)], check=True)
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        quiet(cmd, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
           "--target", "burstq_perfbench"]
    quiet(cmd, "build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["end_to_end" if args.trace == "0" else "per_layer"]

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", str(BUILD / "work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode} and no result line")
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"benchmark did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says "
                 f"{m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = set(result["metrics"]) - set(metrics)
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
