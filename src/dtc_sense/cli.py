"""dtc-sense: Floquet two-chain probe simulator and Fisher-information toolkit.

Commands: simulate (one trace: a sweep with no axes), sweep (Cartesian
parameter sweep), fit (power-law fit on a results CSV), transition (field
amplitude of the QFI peak), noise (simulate's trace plus its point
averages), expcalc (experimental units arithmetic).  Precedence: key
defaults < recipe < config file < flags.  An unknown key, a count below its
minimum, a repeated axis value, a recipe of another command and axes
outside sweep are configuration errors; the printed configuration and
sidecar hold only the keys the command reads (sweep.KEYS).  Each command
returns its table; main alone writes it (sweep.emit_table) to `out`, else
to <command>.csv for simulate, sweep and noise, else nowhere.

Exit codes: 0 success, 2 configuration error, 3 resource-gate rejection,
4 numerical-contract failure.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, NumericalError, ResourceLimitError
from .metrology import (MATERIALS, TRACE_COLUMNS, expcalc, find_transition,
                        material_record, point_average, power_fit)
from .recipes import RECIPES, recipe_config
from .sweep import (
    RunConfig,
    apply_dict,
    base_config,
    config_lines,
    emit_table,
    evaluate_point,
    load_config,
    point_configs,
    run_sweep,
    _TRACE,
    _fmt,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtc-sense", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--recipe", choices=sorted(RECIPES),
                        help="named parameter preset of the same command")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--workers", type=int, help="parallel worker count")
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = base_config(args.command)
    if args.recipe:
        if (owner := RECIPES[args.recipe]["command"]) != args.command:
            raise ConfigError(f"recipe {args.recipe!r} runs under {owner}, "
                              f"not {args.command}")
        apply_dict(cfg, recipe_config(args.recipe))
    if args.config:
        load_config(args.config, base=cfg)
    apply_dict(cfg, {key: value for key, value in vars(args).items()
                     if key in ("out", "workers") and value is not None})
    if cfg.axes and args.command != "sweep":
        raise ConfigError(
            f"{args.command} runs a single point; use the sweep subcommand "
            f"for axes {sorted(cfg.axes)}")
    if not cfg.axes and args.command == "sweep":
        raise ConfigError("sweep needs at least one comma-separated axis")
    return cfg


def _print_resolved(cfg: RunConfig) -> None:
    print("# resolved configuration", *config_lines(cfg.resolved()), sep="\n")


def _cmd_table(cfg: RunConfig, out: str) -> tuple:
    return (*run_sweep(cfg), TRACE_COLUMNS)


def _read_csv_columns(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        data = np.genfromtxt(lines, delimiter=",", names=True) if lines \
            else None
    except (OSError, ValueError) as exc:  # ValueError: bad bytes, ragged rows
        raise ConfigError(f"cannot read results file {path}: {exc}") from exc
    if data is None or data.size == 0 or data.dtype.names is None:
        raise ConfigError(f"results file {path} is empty or has no header")
    return np.atleast_1d(data)


def _cmd_fit(cfg: RunConfig, out: str | None) -> tuple:
    path = cfg.get("in")
    if not path:
        raise ConfigError("fit needs `in = <results.csv>` in the config")
    x_col, y_col = cfg.get("x"), cfg.get("y")
    data = _read_csv_columns(path)
    names = data.dtype.names
    for col in (x_col, y_col):
        if col not in names:
            raise ConfigError(f"column {col!r} not in {path} (has {names})")
    if "n" in names and x_col != "n":
        n_sel = cfg.get("n") or data["n"].max()  # a given n is >= 1
        if not np.isfinite(n_sel):
            raise ConfigError(f"column 'n' of {path} holds {n_sel:g}; "
                              "give n = <cycle> to pick the rows to fit")
        n_sel = int(n_sel)
        data = data[data["n"] == n_sel]
        print(f"# fitting rows at n = {n_sel}")
    x, y = data[x_col], data[y_col]
    keep = (x > 0) & (y > 0)
    if np.count_nonzero(keep) < 3:
        raise ConfigError(
            f"fit needs at least 3 rows with positive {x_col!r} and "
            f"{y_col!r}; {path} has {np.count_nonzero(keep)}"
        )
    try:
        fit = power_fit(x[keep], y[keep])
    except ValueError as exc:  # every x equal: no line to fit
        raise ConfigError(f"cannot fit {y_col!r} against column {x_col!r} "
                          f"of {path}: {exc}") from exc
    print(f"exponent = {fit.exponent:.6g}")
    print(f"prefactor = {fit.prefactor:.6g}")
    print(f"r_squared = {fit.r_squared:.8g}")
    return ([], [(fit.exponent, fit.prefactor, fit.r_squared)],
            ("exponent", "prefactor", "r_squared"))


def _cmd_transition(cfg: RunConfig, out: str | None) -> tuple:
    params = cfg.fixed
    probe, fld, init, _ = point_configs(params)
    n = int(params.get("n", 10))
    grid = np.logspace(-5, 0, int(params["grid_points"]))
    h_max = find_transition(probe, fld, n, grid, init)
    print(f"h_a_max = {h_max:.6g}")
    return [], [(probe.length, n, h_max)], ("L", "n", "h_a_max")


def _cmd_noise(cfg: RunConfig, out: str) -> tuple:
    params = cfg.fixed
    cycles, dn, K = int(params["cycles"]), int(params["dn"]), int(params["K"])
    if K * dn > cycles:
        raise ConfigError(f"K*dn = {K * dn} point-average windows exceed "
                          f"cycles = {cycles}")
    trace = evaluate_point(params)
    pa = point_average(trace, dn, K)  # keys in the header's column order
    pa_path = os.path.splitext(out)[0] + ".pointavg.csv"
    emit_table([], np.column_stack(list(pa.values())), pa_path, None,
               ("n_mid", "n_cumulative", "qfi", "cfi_comp", "cfi_coll"))
    print(f"wrote {K} rows to {pa_path}")
    if K >= 3 and np.all(pa["qfi"] > 0):
        fit = power_fit(pa["n_mid"], pa["qfi"])
        print(f"point-averaged QFI growth exponent alpha = {fit.exponent:.4g}")
    return [], trace.rows, TRACE_COLUMNS


def _cmd_expcalc(cfg: RunConfig, out: str | None) -> tuple:
    params = cfg.fixed
    L, unit_scale = int(params["L"]), float(params["unit_scale"])
    if "f_pair_hz" in params or "coherence_s" in params:
        if not ("f_pair_hz" in params and "coherence_s" in params) \
                or "material" in params:
            raise ConfigError("expcalc needs both f_pair_hz and coherence_s, "
                              "or a material preset instead")
        records = {"custom": expcalc(float(params["f_pair_hz"]),
                                     float(params["coherence_s"]), L,
                                     unit_scale)}
    else:
        names = [params["material"]] if "material" in params \
            else sorted(MATERIALS)
        records = {name: material_record(name, L, unit_scale)
                   for name in names}
    for name, rec in records.items():
        print(f"[{name}] "
              + "  ".join(f"{k}={_fmt(v)}" for k, v in rec.items()))
    # every record has the columns of rec, the last one
    return (["material"], [(name, *rec.values())
                           for name, rec in records.items()], list(rec))


_COMMANDS = {
    "simulate": _cmd_table,
    "sweep": _cmd_table,
    "fit": _cmd_fit,
    "transition": _cmd_transition,
    "noise": _cmd_noise,
    "expcalc": _cmd_expcalc,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        _print_resolved(cfg)
        out = cfg.get("out") or (f"{cfg.command}.csv"
                                 if cfg.command in _TRACE else None)
        axis_names, rows, columns = _COMMANDS[cfg.command](cfg, out)
        if out:
            emit_table(axis_names, rows, out, cfg.resolved(), columns)
            print(f"wrote {len(rows)} rows to {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource gate: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
