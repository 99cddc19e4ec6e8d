"""Benchmark workloads: seeded CLI inputs and the table shape each one implies.

Seed 0 runs the recipe's exact inputs.  Any other seed perturbs only the
continuous inputs (epsilon, h_a, the h_a grid, the nonzero tilts) inside the
recipe's ranges; sizes, cycle counts and regime (resonant, tilt 0 or not,
dephasing rate) never change, so every seed costs the same work.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

TABLE_COLUMNS = ("n", "imbalance", "qfi", "cfi_comp", "cfi_coll")
POINTAVG_COLUMNS = ("n_mid", "n_cumulative", "qfi", "cfi_comp", "cfi_coll")

# fig2-qfi-sweep's field grid, exactly as the recipe builds it
_H_GRID = [float(f"{10.0 ** (-5.0 + 5.0 * i / 39):.12g}") for i in range(40)]
_TILTS = [0.0, 0.01 * math.pi, 0.05 * math.pi, 0.1 * math.pi, 0.2 * math.pi]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # dtc-sense subcommand
    recipe: str | None         # preset the seeded values are layered on
    engine: str                # "floquet" or "lindblad": what setup_s builds


# Why each workload was chosen is recorded in BENCHMARK.json.  init-tilt (the
# tilt > 0 control for a tilt-0 fast path) stays runnable by name but is left
# out of BENCHMARK.json: its run-to-run spread exceeded the wall-time bound.
WORKLOADS = {w.name: w for w in (
    Workload("trace-L8", "simulate", None, "floquet"),
    Workload("qfi-sweep", "sweep", "fig2-qfi-sweep", "floquet"),
    Workload("init-tilt", "sweep", "fig5-init", "floquet"),
    Workload("dephased", "noise", "fig8-noise", "lindblad"),
)}


@dataclass(frozen=True)
class RunInputs:
    """What one workload run feeds the CLI and what its output must look like."""

    workload: Workload
    seed: int
    params: dict               # fixed keys, after the recipe and seed
    axes: dict                 # sweep axis -> list of values, in column order
    config_text: str           # the --config file; empty at seed 0 for recipes

    @property
    def points(self) -> int:
        return math.prod(len(v) for v in self.axes.values())

    @property
    def cycles(self) -> int:
        return int(self.params["cycles"])

    @property
    def header(self) -> tuple[str, ...]:
        return tuple(self.axes) + TABLE_COLUMNS

    def argv(self, config_path: str, out_path: str) -> list[str]:
        args = [self.workload.command]
        if self.workload.recipe:
            args += ["--recipe", self.workload.recipe]
        if self.config_text:
            args += ["--config", config_path]
        return args + ["--out", out_path, "--workers", "1"]

    def first_point(self) -> dict:
        """Parameters of the first sweep point (what setup_s builds)."""
        point = dict(self.params)
        point.update({k: v[0] for k, v in self.axes.items()})
        return point


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _round(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def make_inputs(name: str, seed: int) -> RunInputs:
    """Inputs of workload `name` for `seed` (deterministic in both)."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    base = {"epsilon": 0.1, "h_a_per_Jz": 1e-5, "delta_f": 0.0, "eta": 0.0,
            "theta_rad": 0.0, "gamma_per_Jz": 0.0, "cycles": 50}
    axes: dict = {}
    if name == "trace-L8":
        base["L"] = 8
    elif name == "qfi-sweep":
        base["cycles"] = 10
        axes = {"L": [3, 4, 5, 6, 7], "h_a_per_Jz": list(_H_GRID)}
    elif name == "init-tilt":
        base["L"] = 7
        axes = {"theta_rad": list(_TILTS)}
    elif name == "dephased":
        base.update(L=3, gamma_per_Jz=1e-3, dn=5, K=10)
    else:
        raise KeyError(name)

    changed: dict = {}
    if seed != 0:
        changed["epsilon"] = _round(rng.uniform(0.05, 0.15))
        if name == "qfi-sweep":
            # jitter each grid point by under half a log-step: the grid stays
            # 40 distinct, ordered values inside [1e-5, 1]
            step = 5.0 / 39
            axes["h_a_per_Jz"] = [
                _round(10.0 ** min(0.0, max(-5.0, -5.0 + i * step
                                            + rng.uniform(-0.4, 0.4) * step)))
                for i in range(40)]
            changed["h_a_per_Jz"] = axes["h_a_per_Jz"]
        else:
            changed["h_a_per_Jz"] = _log_uniform(rng, 3e-6, 3e-5)
        if name == "init-tilt":
            # tilt 0 stays; the four positive tilts move by up to 20 %,
            # which keeps them ordered and below pi/4
            axes["theta_rad"] = [0.0] + [_round(t * rng.uniform(0.8, 1.2))
                                         for t in _TILTS[1:]]
            changed["theta_rad"] = axes["theta_rad"]
        base.update({k: v for k, v in changed.items() if k not in axes})

    return RunInputs(w, seed, base, axes,
                     config_text(base if w.recipe is None else changed))


def config_text(params: dict) -> str:
    """`key = value` lines of a dtc-sense config; a list becomes an axis."""
    return "".join(
        f"{key} = " + (", ".join(map(repr, value))
                       if isinstance(value, list) else repr(value)) + "\n"
        for key, value in params.items())


def companion_point(inputs: RunInputs) -> dict | None:
    """The L=3, n=10 point checked against the dense oracle, or None.

    It shares the workload's epsilon, delta_f and eta; h_a and tilt come from
    the workload's own values (the grid's 11th field on qfi-sweep, the
    largest tilt on init-tilt).  The dephased workload has no pure oracle.
    """
    if inputs.workload.engine != "floquet":
        return None
    point = inputs.first_point()
    if "h_a_per_Jz" in inputs.axes:
        point["h_a_per_Jz"] = inputs.axes["h_a_per_Jz"][10]
    if "theta_rad" in inputs.axes:
        point["theta_rad"] = inputs.axes["theta_rad"][-1]
    point.update(L=3, cycles=10)
    return point
