#!/usr/bin/env python3
"""Gate the simulator's speed on the committed perfbench baseline.

    python3 tools/check_perf_baseline.py            # check (CI's perf smoke)
    python3 tools/check_perf_baseline.py --write    # re-measure the baseline

Both modes drive only perfbench/run.py, which builds on its first call.
The check runs `run.py --selfcheck`, then one untraced invocation of each
gated workload at the baseline's seed and length, and exits 1 when a run
is incorrect or failed, or when `ns_per_event` or `wall_ms_per_sim_s`
reaches median / (1 - TOLERANCE). Both are in reference-machine time
(perfbench/README.md). That the machine probe tracks the simulator
across machine classes (other CPUs, cache sizes) is unverified; the
TOLERANCE margin is the only allowance for it.
--write runs INVOCATIONS invocations of every BENCHMARK.json workload,
interleaved so a slow phase of the machine spreads over all of them, and
rewrites the baseline only if every run was correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BASELINE = ROOT / "PERF_BASELINE.json"

# A 40% drop in events/s fails: limit = baseline median / (1 - TOLERANCE).
TOLERANCE = 0.4
GATED_WORKLOADS = ("paper_nmap", "tiered_resilient")
GATED_METRICS = ("wall_ms_per_sim_s", "ns_per_event")
BASELINE_SEED = 1
INVOCATIONS = 5
# The selfcheck compares counts, not times, so short runs suffice.
SELFCHECK_SECONDS = 3


def perfbench(*args):
    """Run perfbench/run.py; its stdout lines, or None if it failed (its
    stdout, e.g. the selfcheck's MISMATCH lines, is then printed)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        print(proc.stdout, end="")
        print(f"perfbench/run.py {' '.join(args)} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return proc.stdout.rstrip("\n").split("\n")


def invoke(workload, seed, seconds):
    """One untraced invocation: (result, host_speed_vs_reference), or
    None if it did not complete or was not correct."""
    lines = perfbench("--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0")
    if lines is None:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        print(f"{workload}: correct={result['correct']}, failed="
              f"{result['failed']} of {result['attempted']} runs",
              file=sys.stderr)
        return None
    speed = next(float(line.split()[1]) for line in lines
                 if line.split()[:1] == ["host_speed_vs_reference"])
    return result, speed


def write():
    spec = json.loads(SPEC.read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    runs = {w["name"]: [] for w in spec["workloads"]}
    for i in range(INVOCATIONS):
        for workload, done in runs.items():
            print(f"invocation {i + 1}/{INVOCATIONS}: {workload}",
                  file=sys.stderr, flush=True)
            out = invoke(workload, BASELINE_SEED, spec["run_seconds"])
            if out is None:
                print("baseline not written", file=sys.stderr)
                return 1
            done.append(out)

    def quartiles(values):
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        return {"median": median, "q1": q1, "q3": q3}

    baseline = {
        "seed": BASELINE_SEED,
        "run_seconds": spec["run_seconds"],
        "invocations": INVOCATIONS,
        "workloads": {
            w: {"host_speed_vs_reference":
                    statistics.median(speed for _, speed in done),
                "metrics": {m: quartiles([r["metrics"][m]["value"]
                                          for r, _ in done])
                            for m in metrics}}
            for w, done in runs.items()
        },
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {BASELINE}")
    return 0


def check():
    baseline = json.loads(BASELINE.read_text())
    selfcheck = perfbench("--selfcheck", "--seed", str(baseline["seed"]),
                          "--seconds", str(SELFCHECK_SECONDS))
    ok = selfcheck is not None
    if ok:
        print("\n".join(selfcheck))
    for workload in GATED_WORKLOADS:
        medians = baseline["workloads"][workload]["metrics"]
        out = invoke(workload, baseline["seed"], baseline["run_seconds"])
        if out is None:
            ok = False
            continue
        result, speed = out
        print(f"{workload} (host_speed_vs_reference {speed:.3f}):")
        for m in GATED_METRICS:
            value = result["metrics"][m]["value"]
            limit = medians[m]["median"] / (1.0 - TOLERANCE)
            ok &= value < limit
            print(f"  {m:<18} {value:10.2f}  baseline median "
                  f"{medians[m]['median']:10.2f}  limit {limit:10.2f}  "
                  f"{'ok' if value < limit else 'REGRESSION'}")
    print(f"check_perf_baseline: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-measure and rewrite the baseline")
    args = parser.parse_args()
    return write() if args.write else check()


if __name__ == "__main__":
    sys.exit(main())
