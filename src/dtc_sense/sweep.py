"""Sweep harness: config parsing, parallel point evaluation, CSV emission.

Configs are plain key=value text (one pair per line; '#' opens a comment at
the start of a line or after whitespace, so `in = h#1.csv` keeps it).  Keys
carry their units: couplings and rates are in units of the chain coupling
(h_a_per_Jz, gamma_per_Jz), angles in radians (theta_rad).  A comma-separated
value is a list unless its key is text; a list makes an axis key of KEYS a
sweep axis.  apply_dict alone checks each key against KEYS and decides axis
or fixed value, for config files, recipes and flags alike.

run_sweep builds and gates every point of the Cartesian product of the
axes' sorted values (one point if there are none: simulate's trace) before
any work, in the order its table holds them, then groups the points by every
axis value but h_a_per_Jz and cuts each group, in ascending h_a, into engine
batches of model.batch_size fields.  Each piece is one call of the pure
(metrology.stroboscopic_traces) or, at a dephasing rate > 0 (point_configs),
the dephased (lindblad.noisy_fisher) builder; with workers > 1 a pool of at
most one process per piece runs them.  Its table is one float array,
allocated once: per point, in that order (so neither the typed order of axis
values nor completion order changes it), the point's axis values beside its
trace's rows (metrology.TRACE_COLUMNS); with no axes, the trace's rows.
Each piece's record is dropped once copied, so at most one piece is held
beside the table (with workers > 1, those the pool has finished ahead).
emit_table writes every CSV, WRITE_CHUNK_ROWS rows at a time, and every
metadata sidecar, whose config_lines the CLI prints.
"""
from __future__ import annotations

import itertools
import math
import os
import re
from collections import namedtuple
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import __version__
from .errors import ConfigError
from .lindblad import noisy_fisher
from .metrology import TRACE_COLUMNS, StroboscopicTrace, stroboscopic_traces
from .model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    batch_size,
    engine_probe,
)

#: A row of KEYS; a default or minimum of None means there is none.
Key = namedtuple("Key", "parse default minimum axis commands")

_TRACE = ("simulate", "sweep", "noise")  # run stroboscopic traces
_PROBE = _TRACE + ("transition",)         # build a probe
#: every key a config may set; axis keys in canonical column order.  `n`
#: has no default here: `transition` uses 10, `fit` the table's largest n.
KEYS = {
    #                  parser default minimum axis   read by
    "L":           Key(int,   4,      None,   True,  _PROBE + ("expcalc",)),
    "epsilon":     Key(float, 0.1,    None,   True,  _PROBE),
    "h_a_per_Jz":  Key(float, 0.0,    None,   True,  _TRACE),
    "delta_f":     Key(float, 0.0,    None,   True,  _PROBE),
    "eta":         Key(float, 0.0,    None,   True,  _PROBE),
    "theta_rad":   Key(float, 0.0,    None,   True,  _PROBE),
    "gamma_per_Jz": Key(float, 0.0,   0,      True,  _TRACE),
    "cycles":      Key(int,   50,     0,      False, _TRACE),
    "workers":     Key(int,   1,      1,      False, ("sweep",)),
    "dn":          Key(int,   5,      1,      False, ("noise",)),
    "K":           Key(int,   10,     1,      False, ("noise",)),
    "n":           Key(int,   None,   1,      False, ("fit", "transition")),
    "grid_points": Key(int,   40,     1,      False, ("transition",)),
    "in":          Key(str,   None,   None,   False, ("fit",)),
    "x":           Key(str,   "L",    None,   False, ("fit",)),
    "y":           Key(str,   "qfi",  None,   False, ("fit",)),
    "material":    Key(str,   None,   None,   False, ("expcalc",)),
    "f_pair_hz":   Key(float, None,   None,   False, ("expcalc",)),
    "coherence_s": Key(float, None,   None,   False, ("expcalc",)),
    "unit_scale":  Key(float, 1.0,    None,   False, ("expcalc",)),
    "out":         Key(str,   None,   None,   False,
                       _PROBE + ("fit", "expcalc")),
}
AXIS_KEYS = tuple(k for k, spec in KEYS.items() if spec.axis)
_DEFAULTS = {k: s.default for k, s in KEYS.items() if s.default is not None}

WRITE_CHUNK_ROWS = 256  # rows emit_table formats and writes at a time
_COMMENT = re.compile(r"(?:^|\s)#")  # '#' at a line's start or after space


@dataclass
class RunConfig:
    """Run parameters of `command`: `values` maps each key to its value, or
    a sweep axis to its list of values; `fixed` and `axes` view each kind."""

    values: dict = dataclass_field(default_factory=dict)
    command: str | None = None
    fixed = property(lambda self: {k: v for k, v in self.values.items()
                                   if not isinstance(v, list)})
    axes = property(lambda self: {k: v for k, v in self.values.items()
                                  if isinstance(v, list)})

    def get(self, key, default=None):
        return self.fixed.get(key, default)

    def resolved(self) -> dict:
        return {k: ",".join(map(_fmt, v)) if isinstance(v, list) else v
                for k, v in self.values.items()}


def _parse_value(key: str, text: str):
    """`key`'s value in `text`: a list at its commas, unless `key` is text.
    An empty piece beside a value (`3,` or `3,,4`) is a ConfigError; a
    text of commas alone gives the empty list apply_dict rejects."""
    parse = KEYS[key].parse if key in KEYS else str  # apply_dict rejects key
    if parse is not str and "," in text:
        pieces = [v.strip() for v in text.split(",")]
        if any(pieces) and not all(pieces):
            raise ConfigError(f"empty item in the list {text!r} for key "
                              f"{key!r}")
        return [_parse_value(key, v) for v in pieces if v]
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {text!r} for key {key!r}") from exc
    if parse is float and not math.isfinite(value):  # NaN passes range checks
        raise ConfigError(f"value {text!r} for key {key!r} is not finite")
    return value


def base_config(command: str | None = None) -> RunConfig:
    """The defaults of the keys `command` reads (of every key, given None)."""
    return apply_dict(RunConfig(command=command), _DEFAULTS)


def apply_dict(cfg: RunConfig, fragment: dict) -> RunConfig:
    """Merge a config fragment into `cfg`: a list makes its key a sweep
    axis, a scalar a fixed value.  Unknown keys, lists on keys that do not
    sweep, lists with a repeated value, values below their minimum (the
    counts', and gamma_per_Jz's 0) and empty text values are ConfigErrors;
    a key cfg's command does not read is dropped."""
    for key, value in fragment.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}; known keys: "
                              f"{', '.join(sorted(KEYS))}")
        spec, is_list = KEYS[key], isinstance(value, (list, tuple))
        if is_list and not spec.axis:
            raise ConfigError(f"key {key!r} is not sweepable")
        if is_list and not value:
            raise ConfigError(f"empty value list for {key!r}")
        if is_list and len(set(value)) < len(value):
            raise ConfigError(f"repeated value in the list for {key!r}")
        if spec.parse is str and value == "":
            raise ConfigError(f"empty value for key {key!r}")
        for v in value if is_list else [value]:
            if spec.minimum is not None and v < spec.minimum:
                raise ConfigError(f"{key} must be >= {spec.minimum}, got {v}")
        if cfg.command not in (None, *spec.commands):
            continue
        cfg.values[key] = list(value) if is_list else value
    return cfg


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Merge key = value lines into `base` (default: `base_config()`),
    each value read by _parse_value."""
    cfg = base if base is not None else base_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ConfigError(f"expected key = value, got {raw!r}")
            apply_dict(cfg, {key: _parse_value(key, value)})
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return cfg


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base)


def point_configs(params: dict
                  ) -> tuple[ProbeConfig, FieldConfig, InitConfig, float]:
    """Build one point's probe (at the pair dimension its engine runs),
    field and initial-state configs and its dephasing rate (gamma_per_Jz,
    or 0 with no cycles to run), and gate the state its engine holds: a
    density matrix at a rate > 0, else a state vector.  A key absent from
    `params` counts as its KEYS default (so `transition` gates as pure)."""
    params = {**_DEFAULTS, **params}
    init = InitConfig(tilt=float(params["theta_rad"]))
    probe = engine_probe(ProbeConfig(length=int(params["L"]),
                                     epsilon=float(params["epsilon"])), init)
    fld = FieldConfig(h_a=float(params["h_a_per_Jz"]),
                      delta_f=float(params["delta_f"]),
                      eta=float(params["eta"]))
    rate = float(params["gamma_per_Jz"]) if int(params["cycles"]) > 0 else 0.0
    batch_size(probe, rate > 0)
    return probe, fld, init, rate


def evaluate_group(cycles: int, configs: list) -> list[StroboscopicTrace]:
    """The `point_configs` of sweep points that differ only in h_a_per_Jz
    -> one stroboscopic trace of `cycles` cycles each, from one call of the
    pure or (at a rate > 0) the dephased trace builder on all their fields."""
    probe, _, init, rate = configs[0]
    fields = [fld for _, fld, _, _ in configs]
    if rate > 0:
        return noisy_fisher(probe, fields, rate, cycles, init)
    return stroboscopic_traces(probe, fields, init, cycles)


def evaluate_point(params: dict) -> StroboscopicTrace:
    """One sweep point -> one stroboscopic trace (pure or dephased)."""
    return evaluate_group(int(params["cycles"]), [point_configs(params)])[0]


def run_sweep(cfg: RunConfig) -> tuple[list[str], np.ndarray]:
    """Evaluate the Cartesian product of the sweep axes (one point if none).

    Returns (axis column names, table): the table holds one row per point
    and cycle, the point's axis values then its trace's rows, in sorted
    axis-value order, in one float array.  With no axes it is the trace's
    rows themselves; otherwise each piece's traces are copied into it and
    dropped before the next piece runs.
    """
    fixed, axes = cfg.fixed, cfg.axes
    axis_names = [k for k in AXIS_KEYS if k in axes]
    if not axis_names:
        return axis_names, evaluate_point(fixed).rows
    # every point is built and gated, in output order, before any work;
    # points that differ only in h_a_per_Jz share field batches (they share
    # their dephasing rate, so all run pure or all dephased)
    points = list(itertools.product(*(sorted(axes[k]) for k in axis_names)))
    groups: dict[tuple, tuple[list, list]] = {}
    for slot, key in enumerate(points):
        shared = tuple(v for name, v in zip(axis_names, key)
                       if name != "h_a_per_Jz")
        slots, configs = groups.setdefault(shared, ([], []))
        slots.append(slot)
        configs.append(point_configs({**fixed, **dict(zip(axis_names, key))}))
    tasks = []
    for slots, configs in groups.values():
        size = batch_size(configs[0][0], configs[0][3] > 0)
        tasks += [(slots[i:i + size], configs[i:i + size])
                  for i in range(0, len(configs), size)]
    task_slots, task_configs = zip(*tasks)

    k, cycles = len(axis_names), int(fixed["cycles"])
    width = k + len(TRACE_COLUMNS)
    table = np.empty((len(points), cycles + 1, width))
    table[:, :, :k] = np.array(points)[:, None, :]

    def fill(pieces):
        pieces = iter(pieces)
        for slots in task_slots:
            # trace by trace: assigning the piece's list of rows at once
            # would first stack it into a temporary as large as the piece
            for slot, trace in zip(slots, next(pieces)):
                table[slot, :, k:] = trace.rows
            del trace  # it holds the piece's record: free that before the next

    workers = min(int(fixed.get("workers", 1)), len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fill(pool.map(evaluate_group, [cycles] * len(tasks), task_configs))
    else:
        fill(map(evaluate_group, [cycles] * len(tasks), task_configs))
    return axis_names, table.reshape(-1, width)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int) or (isinstance(x, float) and math.isfinite(x)
                              and x == int(x) and abs(x) < 1e15):
        return str(int(x))
    return f"{x:.12g}"


def emit_table(axis_names: list[str], rows, out_path: str,
               resolved_config: dict | None = None,
               columns: tuple = TRACE_COLUMNS) -> None:
    """Write the CSV (header: axis names, then `columns`) of `rows`, a 2-D
    float array or a list of row tuples, WRITE_CHUNK_ROWS rows at a time,
    and, given the resolved config, its metadata sidecar.

    Every value follows `_fmt`: 12 significant digits, integral values as
    integers; nothing time- or host-dependent is written, so identical
    inputs give byte-identical files.
    """
    if len(rows) == 0:
        raise ConfigError("refusing to write an empty result table")
    files = {out_path: _csv_pieces(axis_names, rows, columns)}
    if resolved_config is not None:
        files[sidecar_path(out_path)] = ["\n".join(
            [f"dtc-sense {__version__}", *config_lines(resolved_config)])
            + "\n"]
    for path, pieces in files.items():
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _csv_pieces(axis_names: list[str], rows, columns: tuple):
    """emit_table's CSV text: the header line, then the lines of each
    WRITE_CHUNK_ROWS rows of `rows` as one string."""
    yield ",".join([*axis_names, *columns]) + "\n"
    row_fmt = ",".join(["%.12g"] * len(rows[0]))
    for start in range(0, len(rows), WRITE_CHUNK_ROWS):
        chunk = rows[start:start + WRITE_CHUNK_ROWS]
        lines = []
        if isinstance(chunk, np.ndarray):
            chunk = map(tuple, chunk.tolist())
        for row in chunk:
            # %.12g is _fmt except on text, -0.0 and integral |x| >= 1e12,
            # which it writes as '-0' or with 'e+'
            try:
                line = row_fmt % row
                exact = not ("e+" in line or "-0," in line + ",")
            except TypeError:
                exact = False
            lines.append(line if exact else ",".join(map(_fmt, row)))
        yield "\n".join(lines) + "\n"


def config_lines(resolved_config: dict) -> list[str]:
    """The sorted `key = value` lines of a resolved config, as the sidecar
    and the CLI's printed configuration hold them."""
    return [f"{k} = {_fmt(v)}" for k, v in sorted(resolved_config.items())]


def sidecar_path(out_path: str) -> str:
    base, _ = os.path.splitext(out_path)
    return base + ".meta.txt"
