import csv
import itertools
import math

import numpy as np
import pytest

from dtc_sense.cli import main
from dtc_sense.errors import ConfigError
from dtc_sense.recipes import RECIPES, recipe_config
from dtc_sense.sweep import AXIS_KEYS, apply_dict, base_config, point_configs


def test_every_recipe_builds_a_valid_config():
    for name in RECIPES:
        cmd = RECIPES[name]["command"]
        assert cmd in {"simulate", "sweep", "fit", "transition", "noise",
                       "expcalc"}
        cfg = apply_dict(base_config(), recipe_config(name))
        assert "command" not in cfg.fixed
        for key, values in cfg.axes.items():
            assert key in AXIS_KEYS
            assert len(values) >= 2


def test_recipes_respect_resource_gates():
    # every state-evolving preset must run on a desk machine without
    # tripping gates (expcalc and fit do no evolution, any L is fine there)
    for name in RECIPES:
        if RECIPES[name]["command"] in {"expcalc", "fit"}:
            continue
        cfg = apply_dict(base_config(), recipe_config(name))
        for values in itertools.product(*cfg.axes.values()):
            point_configs({**cfg.fixed, **dict(zip(cfg.axes, values))})


def test_sweep_recipes_have_axes_and_simulate_recipes_do_not():
    for name in RECIPES:
        cfg = apply_dict(base_config(), recipe_config(name))
        cmd = RECIPES[name]["command"]
        if cmd == "sweep":
            assert cfg.axes, f"{name} declares no sweep axis"
        elif cmd in {"simulate", "noise"}:
            assert not cfg.axes, f"{name} must be a single point"


def test_unknown_recipe_name():
    with pytest.raises(ConfigError):
        recipe_config("fig99-nope")


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_recipe_runs_end_to_end(name, tmp_path, capsys):
    # the recipe through the CLI: every row written, finite and physical
    # (|imbalance| <= 1, QFI >= CFI_comp >= CFI_coll), and a second run
    # rewrites the same bytes
    command = RECIPES[name]["command"]
    out = tmp_path / f"{name}.csv"
    argv = [command, "--recipe", name, "--out", str(out)]
    assert main(argv) == 0
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    cfg = apply_dict(base_config(), recipe_config(name))
    points = math.prod(len(v) for v in cfg.axes.values())
    expected = 1 if command == "expcalc" \
        else points * (int(cfg.get("cycles")) + 1)
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if path == out:
            assert len(rows) == expected
        for row in rows:
            v = {k: float(x) for k, x in row.items() if k != "material"}
            assert np.all(np.isfinite(list(v.values()))), (path.name, row)
            if "imbalance" in v:
                assert abs(v["imbalance"]) <= 1.0 + 1e-10, row
            if "qfi" in v:
                assert v["qfi"] >= v["cfi_comp"] - 1e-6, (path.name, row)
                assert v["cfi_comp"] >= v["cfi_coll"] - 1e-8, (path.name, row)
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
