"""Run the benchmark over several seeds and record one point of the trajectory.

    python3 perfbench/trajectory.py [--workload NAME ...] [--out FILE.json]

For every workload of BENCHMARK.json, or each --workload given (which may
also be init-tilt, runnable but left out of BENCHMARK.json), it runs
`perfbench/run.py` with BENCHMARK.json's run_seconds in SETS sets of SEEDS
runs, one seed per run (seeds 1..10 in the first set, 11..20 in the second),
then TRACED_RUNS traced runs at seed 0, one after another.  For each set it
prints each end-to-end metric's median over the seeds and its spread,
(q3 - q1) / median with quartiles from statistics.quantiles(n=4), next to
the metric's bound, then how far the later set's median moved from the
first set's in the metric's worse direction.  Every run's result line is
written to --out.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETS = 2
SEEDS = 10
TRACED_RUNS = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    env = next(json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("# environment "))
    return {"seed": seed, "elapsed_s": time.perf_counter() - start,
            "environment": env, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def summarize(runs: list[dict], metric: dict) -> dict:
    values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
    median, rel = spread(values)
    return {"median": median, "spread": rel, "bound": metric["bound"],
            "unit": metric["unit"]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args()

    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or names:
        sets = []
        for k in range(SETS):
            runs = [run(workload, k * SEEDS + i, spec["run_seconds"], 0)
                    for i in range(1, SEEDS + 1)]
            summary = {m["name"]: summarize(runs, m)
                       for m in spec["end_to_end"]}
            for name, s in summary.items():
                print(f"{workload:>10} set {k + 1} {name:>13} median "
                      f"{s['median']:10.5g} {s['unit']:<4} spread "
                      f"{s['spread']:7.4f} (bound {s['bound']})", flush=True)
            sets.append({"summary": summary, "runs": runs})
        for m in spec["end_to_end"]:
            first = sets[0]["summary"][m["name"]]["median"]
            for k, later in enumerate(sets[1:], start=2):
                ratio = later["summary"][m["name"]]["median"] / first
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                print(f"{workload:>10} set {k} vs 1 {m['name']:>13} worse by "
                      f"{worse:+8.4f} (bound {m['bound']})", flush=True)
        traced = [run(workload, 0, spec["run_seconds"], 1)
                  for _ in range(TRACED_RUNS)]
        failed = sum(r["result"]["failed"]
                     for r in traced + [r for s in sets for r in s["runs"]])
        print(f"{workload:>10} failed outputs: {failed}", flush=True)
        record["workloads"][workload] = {"sets": sets, "traced": traced}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
