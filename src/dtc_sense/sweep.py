"""Sweep harness: config parsing, parallel point evaluation, CSV emission.

Configs are plain key=value text (one pair per line, '#' comments).  Keys
carry their units: couplings and rates are in units of the chain coupling
(h_a_per_Jz, gamma_per_Jz), angles in radians (theta_rad).  Any axis key may
hold a comma-separated list, which turns it into a sweep axis; apply_dict
alone decides axis or fixed value, for config files and recipes alike.

run_sweep builds and gates every point of the Cartesian product of the axes
once, before any work, then groups the points by every axis value but
h_a_per_Jz and cuts each group into the field batches model.field_batches
admits.  Each piece is one call of the pure (metrology.stroboscopic_traces)
or dephased (lindblad.noisy_fisher) builder; with workers > 1 a process pool
of at most one worker per piece runs them.  Rows are emitted sorted by axis
values so output never depends on completion order.  emit_table writes every
CSV the CLI produces and each run's metadata sidecar.
"""
from __future__ import annotations

import itertools
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
    field_batches,
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
        return self.fixed.get(key, default)

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
    """Merge a config fragment into `cfg`: a list makes its key a sweep
    axis, a scalar a fixed value."""
    for key, value in fragment.items():
        if key == "command":
            continue
        if isinstance(value, (list, tuple)):
            if key not in AXIS_KEYS:
                raise ConfigError(f"key {key!r} is not sweepable")
            if not value:
                raise ConfigError(f"empty value list for {key!r}")
            cfg.axes[key] = list(value)
            cfg.fixed.pop(key, None)
        else:
            cfg.fixed[key] = value
            cfg.axes.pop(key, None)
    return cfg


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Merge key = value lines into `base` (default: `base_config()`); a
    comma-separated value is a list."""
    cfg = base if base is not None else base_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ConfigError(f"expected key = value, got {raw!r}")
            if "," in value:
                value = [_parse_scalar(key, v.strip())
                         for v in value.split(",") if v.strip()]
            else:
                value = _parse_scalar(key, value)
            apply_dict(cfg, {key: value})
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return cfg


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base)


#: smallest accepted value of each count key
_MIN_COUNTS = dict(cycles=0, n=1, dn=1, K=1, grid_points=1, workers=1)


def _runs_mixed(params: dict) -> bool:
    """Whether a sweep point runs the density-matrix path."""
    return (float(params.get("gamma_per_Jz", 0.0)) > 0.0
            and int(params["cycles"]) > 0)


def point_configs(params: dict, mixed: bool | None = None
                  ) -> tuple[ProbeConfig, FieldConfig, InitConfig]:
    """Build one parameter point's probe (at the pair dimension its engine
    runs), field and initial-state configs, and gate the state that engine
    will hold: a density matrix when `mixed`, else a state vector (None: as
    a sweep point runs).  A count (cycles, n, dn, K, grid_points, workers)
    below its minimum is a ConfigError."""
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


def evaluate_group(params: dict, configs: list) -> list[StroboscopicTrace]:
    """The `point_configs` of sweep points that differ only in h_a_per_Jz
    (`params`: any one of them) -> one stroboscopic trace each, from one
    call of the pure or the dephased trace builder on all their fields."""
    probe, _, init = configs[0]
    fields = [fld for _, fld, _ in configs]
    cycles = int(params["cycles"])
    if _runs_mixed(params):
        return noisy_fisher(probe, fields, float(params["gamma_per_Jz"]),
                            cycles, init)
    return stroboscopic_traces(probe, fields, init, cycles)


def evaluate_point(params: dict) -> StroboscopicTrace:
    """One sweep point -> one stroboscopic trace (pure or dephased)."""
    return evaluate_group(params, [point_configs(params)])[0]


def trace_rows(trace: StroboscopicTrace, key: tuple = ()) -> list[tuple]:
    """One CSV row per cycle, in CSV_COLUMNS order after the axis values `key`."""
    columns = (trace.n, trace.imbalance, trace.qfi, trace.cfi_computational,
               trace.cfi_collective)
    return [key + row for row in zip(*(c.tolist() for c in columns))]


def run_sweep(cfg: RunConfig) -> tuple[list[str], list[tuple]]:
    """Evaluate the Cartesian product of the sweep axes.

    Returns (axis column names, rows); each row is the axis-value tuple
    followed by the per-cycle record, already in deterministic order.
    """
    axis_names = [k for k in AXIS_KEYS if k in cfg.axes]
    # every point is built and gated before any work; points that differ
    # only in h_a_per_Jz share field batches (they share gamma_per_Jz and
    # cycles, so all run pure or all dephased)
    groups: dict[tuple, tuple[list, dict, list]] = {}
    for key in itertools.product(*(cfg.axes[k] for k in axis_names)):
        params = {**cfg.fixed, **dict(zip(axis_names, key))}
        shared = tuple(v for name, v in zip(axis_names, key)
                       if name != "h_a_per_Jz")
        keys, _, configs = groups.setdefault(shared, ([], params, []))
        keys.append(key)
        configs.append(point_configs(params))
    tasks = [(keys[s], params, configs[s])
             for keys, params, configs in groups.values()
             for s in field_batches(configs[0][0], len(configs),
                                    _runs_mixed(params))]
    task_keys, task_params, task_configs = zip(*tasks)

    workers = min(int(cfg.get("workers", 1)), len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(evaluate_group, task_params, task_configs))
    else:
        traces = map(evaluate_group, task_params, task_configs)
    results = dict(zip(itertools.chain(*task_keys), itertools.chain(*traces)))

    return axis_names, [row for key in sorted(results)
                        for row in trace_rows(results[key], key)]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int,)) or (isinstance(x, float) and x == int(x) and
                                 abs(x) < 1e15):
        return str(int(x))
    return f"{x:.12g}"


def emit_table(axis_names: list[str], rows: list[tuple], out_path: str,
               resolved_config: dict | None = None,
               columns: tuple = CSV_COLUMNS) -> None:
    """Write the CSV (header: axis names, then `columns`) and, given the
    resolved config, its metadata sidecar.

    Every value follows `_fmt`: 12 significant digits, integral values as
    integers; nothing time- or host-dependent is written, so identical
    inputs give byte-identical files.
    """
    if not rows:
        raise ConfigError("refusing to write an empty result table")
    row_fmt = ",".join(["%.12g"] * len(rows[0]))
    lines = [",".join([*axis_names, *columns])]
    for row in rows:
        # %.12g is _fmt except on text, -0.0, non-finite values and integral
        # |x| >= 1e12, which it writes as '-0', 'nan', 'inf' or with 'e+'
        try:
            line = row_fmt % row
            exact = not ("e+" in line or "n" in line or "-0," in line + ",")
        except TypeError:
            exact = False
        lines.append(line if exact else ",".join(map(_fmt, row)))
    files = {out_path: lines}
    if resolved_config is not None:
        files[sidecar_path(out_path)] = [f"dtc-sense {__version__}"] + [
            f"{key} = {_fmt(resolved_config[key])}"
            for key in sorted(resolved_config)]
    for path, file_lines in files.items():
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(file_lines) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc


def sidecar_path(out_path: str) -> str:
    base, _ = os.path.splitext(out_path)
    return base + ".meta.txt"
