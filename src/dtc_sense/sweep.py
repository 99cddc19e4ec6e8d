"""Sweep harness: config parsing, parallel point evaluation, CSV emission.

Configs are plain key=value text (one pair per line, '#' comments).  Keys
carry their units: couplings and rates are in units of the chain coupling
(h_a_per_Jz, gamma_per_Jz), angles in radians (theta_rad).  Any axis key may
hold a comma-separated list, which turns it into a sweep axis; the Cartesian
product of all axes is evaluated, in parallel when workers > 1, and rows are
emitted sorted by axis values so output never depends on completion order.
Pure-state points that differ only in h_a_per_Jz run as one field batch
(metrology.stroboscopic_traces); dephased points run one by one.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dataclass_field

from . import __version__
from .errors import ConfigError
from .lindblad import noisy_fisher
from .metrology import StroboscopicTrace, stroboscopic_traces
from .model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    check_state_size,
    engine_probe,
)

#: sweepable keys, in canonical column order
AXIS_KEYS = ("L", "epsilon", "h_a_per_Jz", "delta_f", "eta", "theta_rad",
             "gamma_per_Jz")
_INT_KEYS = {"L", "cycles", "workers", "dn", "K", "n", "grid_points"}
_STR_KEYS = {"out", "in", "x", "y", "recipe", "material"}

CSV_COLUMNS = ("n", "imbalance", "qfi", "cfi_comp", "cfi_coll")


@dataclass
class RunConfig:
    """Resolved run parameters: fixed values plus the sweep axes."""

    fixed: dict = dataclass_field(default_factory=dict)
    axes: dict = dataclass_field(default_factory=dict)  # key -> list of values

    def get(self, key, default=None):
        if key in self.fixed:
            return self.fixed[key]
        return default

    def resolved(self) -> dict:
        out = dict(self.fixed)
        for k, v in self.axes.items():
            out[k] = ",".join(_fmt(x) for x in v)
        return out


_DEFAULTS = {
    "L": 4, "epsilon": 0.1, "h_a_per_Jz": 0.0, "delta_f": 0.0, "eta": 0.0,
    "theta_rad": 0.0, "gamma_per_Jz": 0.0, "cycles": 50, "workers": 1,
    "dn": 5, "K": 10,
}


def _parse_scalar(key: str, text: str):
    if key in _STR_KEYS:
        return text
    try:
        if key in _INT_KEYS:
            return int(text)
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {text!r} for key {key!r}") from exc
    if not math.isfinite(value):  # NaN passes every range check
        raise ConfigError(f"value {text!r} for key {key!r} is not finite")
    return value


def base_config() -> RunConfig:
    return RunConfig(fixed=dict(_DEFAULTS))


def apply_dict(cfg: RunConfig, fragment: dict) -> RunConfig:
    """Merge a config fragment (lists become sweep axes) into `cfg`."""
    for key, value in fragment.items():
        if key == "command":
            continue
        if isinstance(value, (list, tuple)):
            if key not in AXIS_KEYS:
                raise ConfigError(f"key {key!r} is not sweepable")
            cfg.axes[key] = list(value)
            cfg.fixed.pop(key, None)
        else:
            cfg.fixed[key] = value
            cfg.axes.pop(key, None)
    return cfg


def parse_config_text(text: str, overrides: dict | None = None,
                      base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else base_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if "," in value:
            if key not in AXIS_KEYS:
                raise ConfigError(f"line {lineno}: key {key!r} is not sweepable")
            cfg.axes[key] = [_parse_scalar(key, v.strip())
                             for v in value.split(",") if v.strip()]
            if not cfg.axes[key]:
                raise ConfigError(f"line {lineno}: empty value list for {key!r}")
            cfg.fixed.pop(key, None)
        else:
            cfg.fixed[key] = _parse_scalar(key, value)
            cfg.axes.pop(key, None)
    for k, v in (overrides or {}).items():
        cfg.fixed[k] = v
    return cfg


def load_config(path: str, overrides: dict | None = None,
                base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, overrides, base)


#: smallest accepted value of each count key
_MIN_COUNTS = {"cycles": 0, "n": 1, "dn": 1, "K": 1, "grid_points": 1}


def _runs_mixed(params: dict) -> bool:
    """Whether a sweep point runs the density-matrix path."""
    return (float(params.get("gamma_per_Jz", 0.0)) > 0.0
            and int(params["cycles"]) > 0)


def point_configs(params: dict, mixed: bool | None = None
                  ) -> tuple[ProbeConfig, FieldConfig, InitConfig]:
    """Build one parameter point's probe (at the pair dimension its engine
    runs), field and initial-state configs, and gate the state that engine
    will hold: a density matrix when `mixed`, else a state vector (None: as
    a sweep point runs).  A count (cycles, n, dn, K, grid_points) below its
    minimum is a ConfigError."""
    for key, low in _MIN_COUNTS.items():
        if key in params and int(params[key]) < low:
            raise ConfigError(f"{key} must be >= {low}, got {params[key]}")
    init = InitConfig(tilt=float(params["theta_rad"]))
    probe = engine_probe(ProbeConfig(length=int(params["L"]),
                                     epsilon=float(params["epsilon"])), init)
    fld = FieldConfig(h_a=float(params["h_a_per_Jz"]),
                      delta_f=float(params["delta_f"]),
                      eta=float(params["eta"]))
    check_state_size(probe, _runs_mixed(params) if mixed is None else mixed)
    return probe, fld, init


def evaluate_group(points: list[dict]) -> list[StroboscopicTrace]:
    """Sweep points that differ only in h_a_per_Jz -> one stroboscopic trace
    each: pure points as one field batch, dephased points one by one."""
    params = points[0]
    probe, _, init = point_configs(params)
    fields = [point_configs(p)[1] for p in points]
    cycles = int(params["cycles"])
    gamma = float(params.get("gamma_per_Jz", 0.0))
    if _runs_mixed(params):
        return [noisy_fisher(probe, fld, gamma, cycles, init) for fld in fields]
    return stroboscopic_traces(probe, fields, init, cycles)


def evaluate_point(params: dict) -> StroboscopicTrace:
    """One sweep point -> one stroboscopic trace (pure or dephased)."""
    return evaluate_group([params])[0]


def trace_rows(trace: StroboscopicTrace, key: tuple = ()) -> list[tuple]:
    """One CSV row per cycle, in CSV_COLUMNS order after the axis values `key`."""
    return [key + (int(trace.n[i]), trace.imbalance[i], trace.qfi[i],
                   trace.cfi_computational[i], trace.cfi_collective[i])
            for i in range(len(trace))]


def _eval_for_pool(group: list[tuple[tuple, dict]]):
    keys, params = zip(*group)
    return keys, evaluate_group(list(params))


def run_sweep(cfg: RunConfig, workers: int | None = None
              ) -> tuple[list[str], list[tuple]]:
    """Evaluate the Cartesian product of the sweep axes.

    Returns (axis column names, rows); each row is the axis-value tuple
    followed by the per-cycle record, already in deterministic order.
    """
    axis_names = [k for k in AXIS_KEYS if k in cfg.axes]
    points: list[tuple[tuple, dict]] = []

    def expand(i: int, chosen: dict):
        if i == len(axis_names):
            key = tuple(chosen[k] for k in axis_names)
            points.append((key, {**cfg.fixed, **chosen}))
            return
        for v in cfg.axes[axis_names[i]]:
            expand(i + 1, {**chosen, axis_names[i]: v})

    expand(0, {})
    for _, params in points:  # gate and validate every point before any work
        point_configs(params)

    # pure points that differ only in h_a_per_Jz share one field batch;
    # each dephased point is a group of its own
    groups: dict[tuple, list[tuple[tuple, dict]]] = {}
    for key, params in points:
        mixed = _runs_mixed(params)
        shared = key if mixed else tuple(
            v for name, v in zip(axis_names, key) if name != "h_a_per_Jz")
        groups.setdefault((mixed, shared), []).append((key, params))

    workers = workers if workers is not None else int(cfg.get("workers", 1))
    results: dict[tuple, StroboscopicTrace] = {}
    if workers > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for keys, traces in pool.map(_eval_for_pool, groups.values()):
                results.update(zip(keys, traces))
    else:
        for group in groups.values():
            results.update(zip(*_eval_for_pool(group)))

    rows = []
    for key in sorted(results):
        rows += trace_rows(results[key], key)
    return axis_names, rows


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int,)) or (isinstance(x, float) and x == int(x) and
                                 abs(x) < 1e15):
        return str(int(x))
    return f"{x:.12g}"


def emit_table(axis_names: list[str], rows: list[tuple], out_path: str,
               resolved_config: dict | None = None) -> None:
    """Write the CSV and its metadata sidecar.

    Numbers use 12 significant digits; nothing time- or host-dependent is
    written, so identical inputs give byte-identical files.
    """
    if not rows:
        raise ConfigError("refusing to write an empty result table")
    header = list(axis_names) + list(CSV_COLUMNS)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    write_text(out_path, "\n".join(lines) + "\n")
    if resolved_config is not None:
        write_sidecar(out_path, resolved_config)


def write_text(path: str, text: str) -> None:
    """Write an output file; an unwritable path is a configuration error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def sidecar_path(out_path: str) -> str:
    base, _ = os.path.splitext(out_path)
    return base + ".meta.txt"


def write_sidecar(out_path: str, resolved_config: dict) -> None:
    lines = [f"dtc-sense {__version__}"]
    for key in sorted(resolved_config):
        lines.append(f"{key} = {_fmt(resolved_config[key])}")
    write_text(sidecar_path(out_path), "\n".join(lines) + "\n")
