"""Write the outputs of every recipe, and of a few other runs, to one
directory; or compare two such directories.

    python tests/recipe_outputs.py OUTDIR
    python tests/recipe_outputs.py --compare BEFORE AFTER

Each run is one `python -m dtc_sense.cli` process on the package in this
checkout's src/, started in OUTDIR.  For each run OUTDIR gets its CSV, the
`.meta.txt` sidecar, `noise`'s `.pointavg.csv`, any config file it read,
and `<run>.stdout`: its standard output followed by a line `exit <code>`.
The runs are every recipe under its own command, `fit` on the
`fig2-scaling` table, `transition` at L = 3, n = 10 at tilt 0 and 0.1,
one sweep of pure and dephased points on a pool of two workers, one
5000-cycle `simulate` at L = 2, whose table spans many of `emit_table`'s
write chunks, and one `noise` run on the unitary engine (the `fig8-noise`
recipe runs the dephased one).

Nothing in the outputs depends on the checkout, the time or the host, so
two checkouts give the same numbers exactly when

    python <other checkout>/tests/recipe_outputs.py /tmp/before
    python tests/recipe_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

prints nothing.  Where they differ, `--compare` prints one line per file:
`identical`, `differs` (a file that is not a CSV, or a CSV whose header or
row count changed) or `only in BEFORE|AFTER`; and for each column of a CSV
that changed, the largest absolute change and the largest relative change
|a - b| / max(|a|, |b|) over its rows (0 where both are 0; a text column
reads `identical` or `differs`).  It exits 1 if some file is missing from
one side or differs in shape, else 0.  The file is not a test module;
pytest does not collect it.
"""
from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

#: run name -> (arguments after the command name, config text or None)
EXTRA_RUNS = {
    "fit": (["fit"], "in = fig2-scaling.csv\n"),
    "transition-tilt0": (["transition"], "L = 3\nn = 10\n"),
    "transition-tilt0.1": (["transition"], "L = 3\nn = 10\ntheta_rad = 0.1\n"),
    "sweep-mixed": (["sweep", "--workers", "2"],
                    "L = 3\ngamma_per_Jz = 0, 1e-3, 0.01\n"
                    "h_a_per_Jz = 1e-5, 1e-3\ntheta_rad = 0, 0.1\n"
                    "cycles = 20\n"),
    "simulate-long": (["simulate"], "L = 2\ncycles = 5000\n"
                      "h_a_per_Jz = 1e-5\n"),
    "noise-pure": (["noise"], "L = 3\ngamma_per_Jz = 0\ncycles = 50\n"),
}


def runs() -> dict[str, tuple[list[str], str | None]]:
    """Every run, in order: the recipes first (fit reads fig2-scaling's
    table), then EXTRA_RUNS."""
    sys.path.insert(0, str(SRC))
    from dtc_sense.recipes import RECIPES

    out = {name: ([recipe["command"], "--recipe", name], None)
           for name, recipe in sorted(RECIPES.items())}
    return {**out, **EXTRA_RUNS}


def main(outdir: str) -> int:
    """Write every run's outputs to `outdir`; return how many runs did not
    exit 0."""
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    failed = 0
    for name, (args, config) in runs().items():
        argv = [sys.executable, "-m", "dtc_sense.cli", *args,
                "--out", f"{name}.csv"]
        if config is not None:
            (root / f"{name}.cfg").write_text(config)
            argv += ["--config", f"{name}.cfg"]
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True)
        (root / f"{name}.stdout").write_text(
            f"{proc.stdout}exit {proc.returncode}\n")
        if proc.returncode != 0:
            failed += 1
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
    return failed


def _column_change(before: list[str], after: list[str]) -> str:
    """The largest absolute and relative change between two columns of
    values, or `identical`/`differs` for a column that is not numeric."""
    try:
        a, b = np.array(before, dtype=float), np.array(after, dtype=float)
    except ValueError:
        return "identical" if before == after else "differs"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(same, 0.0, np.abs(a - b))
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=~same)
    return f"{diff.max():10.2g} {rel.max():10.2g}"


def compare(before: str, after: str) -> tuple[list[str], bool]:
    """The table `--compare` prints (module docstring), and whether every
    file is on both sides with the same shape."""
    roots = Path(before), Path(after)
    names = sorted({p.name for root in roots for p in root.iterdir()})
    width = max(map(len, names), default=4)
    lines = [f"{'file':<{width}} {'column':<14} {'max abs':>10} "
             f"{'max rel':>10}"]
    whole = True
    for name in names:
        a, b = (root / name for root in roots)
        if not (a.exists() and b.exists()):
            lines.append(f"{name:<{width}} only in "
                         f"{roots[0] if a.exists() else roots[1]}")
            whole = False
            continue
        if a.read_bytes() == b.read_bytes():
            lines.append(f"{name:<{width}} identical")
            continue
        ta, tb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
        if a.suffix != ".csv" or ta[0] != tb[0] or len(ta) != len(tb):
            lines.append(f"{name:<{width}} differs")
            whole &= a.suffix != ".csv"
            continue
        for j, column in enumerate(ta[0]):
            change = _column_change(*([row[j] for row in t[1:]]
                                      for t in (ta, tb)))
            lines.append(f"{name:<{width}} {column:<14} {change}")
    return lines, whole


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        table, whole = compare(sys.argv[2], sys.argv[3])
        print(*table, sep="\n")
        sys.exit(0 if whole else 1)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(1 if main(sys.argv[1]) else 0)
