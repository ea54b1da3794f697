#!/usr/bin/env python3
"""nmapsim host-time benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload paper_nmap --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck [--seed 7] [--seconds 3]

Run from the repository root. The first call builds the simulator from
../src and the benchmark binary into .bench_build/perfbench (Release, LTO); later
calls only re-check the build. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones (see perfbench/README.md). The last line of
stdout is the JSON result; everything the build prints goes to stderr.
The exit code is nonzero, with no result printed, when the build or the
run fails or the printed metric names disagree with BENCHMARK.json.

--selfcheck runs every workload twice on one seed with --trace 1 and
once with --trace 0, and requires identical work counts and model
outputs between the two traced runs, a passing correctness gate, and
metric names that match BENCHMARK.json in both directions.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "nmapsim_perfbench"
SPEC = ROOT / "BENCHMARK.json"

# Limit on one benchmark-binary run; the build check before it takes about a second.
RUN_LIMIT_S = 165
BUILD_LIMIT_S = 850

# Units of the per-layer host-time measurements; every other per-layer
# metric is a deterministic function of (workload, seed) and must repeat
# exactly.
HOST_TIME_UNITS = {"ns", "ms", "wall_share", "ratio"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns True on success."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {exc}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return BINARY.exists()


def spec_metrics(trace):
    """BENCHMARK.json's metrics for this mode, as {name: unit}."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(workload, seed, seconds, trace, deadline):
    """Run the benchmark binary once; returns (stdout lines, result dict) or None.
    The last line is the result, kept verbatim."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, check=False,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload}: benchmark binary exceeded its time limit")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"{workload}: benchmark binary failed with exit code "
            f"{proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        log(f"{workload}: unreadable result line: {exc}")
        return None
    return lines, result


def names_match(result, trace):
    """Every BENCHMARK.json metric printed with its unit, and nothing
    else."""
    want = spec_metrics(trace)
    got = result["metrics"]
    missing = [n for n in want if n not in got]
    extra = [n for n in got if n not in want]
    wrong_unit = [n for n in want
                  if n in got and got[n]["unit"] != want[n]]
    for n in missing:
        log(f"metric {n} is in BENCHMARK.json but was not printed")
    for n in extra:
        log(f"metric {n} was printed but is not in BENCHMARK.json")
    for n in wrong_unit:
        log(f"metric {n} printed in {got[n]['unit']}, "
            f"BENCHMARK.json says {want[n]}")
    return not missing and not extra and not wrong_unit


def workloads():
    return [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]


def selfcheck(seed, seconds, deadline_per_run):
    ok = True
    for workload in workloads():
        runs = []
        for trace in (True, True, False):
            out = run_binary(workload, seed, seconds, trace,
                             time.monotonic() + deadline_per_run)
            if out is None:
                log(f"selfcheck {workload}: run failed")
                return False
            result = out[1]
            ok &= names_match(result, trace)
            if not result["correct"] or result["failed"] != 0:
                log(f"selfcheck {workload}: correctness gate failed")
                ok = False
            runs.append(result)
        first, second = runs[0]["metrics"], runs[1]["metrics"]
        exact = [n for n, m in first.items()
                 if m["unit"] not in HOST_TIME_UNITS]
        differ = [n for n in exact
                  if first[n]["value"] != second.get(n, {}).get("value")]
        for n in differ:
            log(f"selfcheck {workload}: {n} differs between repeats: "
                f"{first[n]['value']} vs {second[n]['value']}")
        ok &= not differ
        print(f"selfcheck {workload} seed {seed}: "
              f"{len(exact)} exact metrics compared, "
              f"{'ok' if not differ else 'MISMATCH'}")
    print(f"selfcheck: {'ok' if ok else 'FAILED'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not SPEC.exists():
        log(f"{SPEC.name} not found next to {BENCH_DIR.name}/")
        return 1
    if not build():
        return 1

    if args.selfcheck:
        return 0 if selfcheck(args.seed, args.seconds, RUN_LIMIT_S) else 1
    if args.workload not in workloads():
        parser.error(f"--workload must be one of {', '.join(workloads())}")

    # Timed from the end of the build check, so only the first call in a
    # checkout (the one that compiles) runs past RUN_LIMIT_S.
    out = run_binary(args.workload, args.seed, args.seconds,
                     args.trace == 1, time.monotonic() + RUN_LIMIT_S)
    if out is None:
        return 1
    lines, result = out
    if not names_match(result, args.trace == 1):
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
