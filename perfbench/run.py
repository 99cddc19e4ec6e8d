"""Benchmark of the dtc-sense CLI on figure workloads (see workloads.py).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from `src/` as checked
out, nothing is installed.  Load model: a closed loop with one client.  Each
sample is one fresh `python -m dtc_sense.cli` process, started after the
previous one exits, so import and first-touch costs are in every sample, as
they are for a user.  Every run uses `--workers 1`: on the 2-vCPU machine
this was written on, the process pool gave no speed-up, so parallel scaling
is not measured.

Every CLI output is checked (exit code, table shape, finiteness, |imbalance|
<= 1, QFI >= CFI_comp >= CFI_coll, point averages, byte-identical reruns),
and once per invocation an L=3 companion point is compared with the dense
scipy oracle in tests/oracles.py.  With --trace 0 the last line reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates plain and
traced runs (perfbench/traced_cli.py) and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import Tally, check_oracle, verify_run  # noqa: E402
from traced_cli import summarize  # noqa: E402
from workloads import (WORKLOADS, companion_point, config_text,  # noqa: E402
                       make_inputs)

# One BLAS thread per child: the matrices are at most 64x64 (Lindblad, L=3)
# and the statevector kernels are einsum loops, so a second thread buys
# nothing and only adds scheduling noise on a shared 2-vCPU machine.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_RUNS = 3            # timed CLI runs per invocation, even past --seconds
MIN_TRACED_RUNS = 2     # of each kind (plain, traced) with --trace 1
SETUP_PROBES = 3        # fresh-process set-up probes after each CLI run
RUN_TIMEOUT_S = 150
PARALLEL_SCALING = ("omitted: every run uses workers=1; on 2 vCPUs the fig2 "
                    "sweep took 5.67 s serial and 8.21 s at workers=2")


def spawn(cmd: list[str], cwd: str, env: dict) -> tuple[float, int, float]:
    """Run cmd to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def read_outputs(workdir: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(workdir)):
        if name.startswith("out."):
            with open(os.path.join(workdir, name), "rb") as fh:
                files[name] = fh.read()
    return files


def clear_outputs(workdir: str) -> None:
    for name in os.listdir(workdir):
        if name.startswith("out."):
            os.remove(os.path.join(workdir, name))


def stderr_tail(workdir: str) -> str:
    with open(os.path.join(workdir, "stderr.txt"), "rb") as fh:
        return fh.read().decode(errors="replace").strip()[-300:]


def measure_setup(inputs, env: dict, workdir: str) -> float:
    """Set-up seconds of one fresh process (perfbench/setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"),
         json.dumps(inputs.first_point()), inputs.workload.engine],
        cwd=workdir, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def oracle_problems(inputs, workdir: str, env: dict) -> list[str]:
    """Program vs dense scipy oracle at the workload's L=3 companion point."""
    point = companion_point(inputs)
    config = os.path.join(workdir, "companion.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text(point))
    out = os.path.join(workdir, "companion.csv")
    _, code, _ = spawn([sys.executable, "-m", "dtc_sense.cli", "simulate",
                        "--config", config, "--out", out], workdir, env)
    if code != 0:
        return [f"companion run exit code {code}: {stderr_tail(workdir)}"]
    with open(out, encoding="utf-8") as fh:
        last = fh.read().splitlines()[-1].split(",")
    program = {"imbalance": float(last[1]), "qfi": float(last[2])}
    oracle_env = dict(env, PYTHONPATH=os.pathsep.join(
        [env["PYTHONPATH"], os.path.join(ROOT, "tests")]))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle_point.py"),
         json.dumps(point)], cwd=workdir, env=oracle_env, capture_output=True,
        text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        return [f"oracle exit code {done.returncode}: {done.stderr[-300:]}"]
    oracle = json.loads(done.stdout.splitlines()[-1])
    return check_oracle(program, oracle)


def environment(seed: int) -> dict:
    """Versions and settings of the run; call it after the timed runs, since
    importing numpy here would inflate the children's peak RSS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "parallel_scaling": PARALLEL_SCALING,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Runner:
    """Runs one workload's CLI in a scratch directory and checks each output."""

    def __init__(self, inputs, workdir: str, env: dict, tally: Tally):
        self.inputs, self.workdir, self.env, self.tally = (
            inputs, workdir, env, tally)
        self.config = os.path.join(workdir, "run.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(inputs.config_text)
        self.argv = inputs.argv(self.config, "out.csv")
        self.reference = None
        self.spans = os.path.join(workdir, "spans.json")
        self.untraced: list[str] = []   # traced names the package lacks

    def run(self, traced: bool = False) -> tuple[float, float, dict | None]:
        clear_outputs(self.workdir)
        head = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                self.spans] if traced else [sys.executable, "-m",
                                            "dtc_sense.cli"]
        wall, code, rss = spawn(head + self.argv, self.workdir, self.env)
        files = read_outputs(self.workdir)
        problems = verify_run(code, files, self.inputs, self.reference)
        if code != 0:
            problems.append(stderr_tail(self.workdir))
        label = ("traced" if traced else "plain") + f" run (wall {wall:.3f} s)"
        if self.tally.record(label, problems) and self.reference is None:
            self.reference = files
        summary = None
        if traced and code == 0:
            with open(self.spans, encoding="utf-8") as fh:
                dump = json.load(fh)
            self.untraced = dump["missing"]
            summary = summarize(dump)
        return wall, rss, summary


def end_to_end(runner: Runner, seconds: float) -> dict[str, list]:
    # a few set-up probes follow each CLI run, so that set-up is sampled
    # across the whole run rather than in one burst
    samples = {"wall_s": [], "cycles_per_s": [], "peak_rss_mb": [],
               "setup_s": []}
    work = runner.inputs.points * runner.inputs.cycles
    start = time.perf_counter()
    while (len(samples["wall_s"]) < MIN_RUNS
           or time.perf_counter() - start < seconds):
        wall, rss, _ = runner.run()
        samples["wall_s"].append(wall)
        samples["cycles_per_s"].append(work / wall)
        samples["peak_rss_mb"].append(rss)
        samples["setup_s"] += [
            measure_setup(runner.inputs, runner.env, runner.workdir)
            for _ in range(SETUP_PROBES)]
    return samples


def per_layer(runner: Runner, seconds: float,
              names: list[str]) -> dict[str, list]:
    # plain and traced runs alternate; the overhead of tracing is the
    # difference within each such pair
    overhead, summaries = [], []
    start = time.perf_counter()
    while (len(overhead) < MIN_TRACED_RUNS
           or time.perf_counter() - start < seconds):
        plain = runner.run()[0]
        wall, _, summary = runner.run(traced=True)
        overhead.append(wall - plain)
        if summary is not None:
            summary["wall_s"] = wall
            summaries.append(summary)
    for s in summaries:
        s["floquet.apply_cycle.gbps_computed"] = (
            s.get("floquet.apply_cycle.bytes_computed", 0.0)
            / s["floquet.apply_cycle.self_s"] / 1e9
            if s.get("floquet.apply_cycle.self_s") else 0.0)
        s["trace.coverage"] = s["covered_s"] / s["wall_s"]
    samples = {name: [s.get(name, 0.0) for s in summaries] for name in names}
    samples["trace.overhead_s"] = overhead
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "BENCHMARK.json"),
              os.path.join(ROOT, "src", "dtc_sense", "cli.py"),
              os.path.join(ROOT, "tests", "oracles.py")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a dtc-sense checkout, missing {missing}",
              file=sys.stderr)
        return 2
    with open(needed[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = src
    env = dict(os.environ)

    inputs = make_inputs(args.workload, args.seed)
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(inputs, workdir, env, tally)
        if companion_point(inputs) is not None:
            tally.record("oracle", oracle_problems(inputs, workdir, env))
        if args.trace:
            samples = per_layer(runner, args.seconds,
                                [m["name"] for m in metrics_spec])
        else:
            samples = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = environment(args.seed)
    record.update(workload=args.workload, config=inputs.config_text,
                  error_rate=tally.error_rate)
    print("# environment " + json.dumps(record, sort_keys=True))
    if runner.untraced:
        print("# not traced (missing from the package): "
              + ", ".join(runner.untraced))
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    metrics = {}
    for m in metrics_spec:
        values = samples.get(m["name"]) or [0.0]
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"# {m['name']} = {med:.6g} {m['unit']} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    print(f"# error_rate = {tally.error_rate:.6g} "
          f"({tally.failed} failed of {tally.attempted} outputs)")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
