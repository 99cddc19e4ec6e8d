import pytest

from dtc_sense.errors import ConfigError
from dtc_sense.recipes import RECIPES, recipe_config
import itertools

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
        mixed = True if RECIPES[name]["command"] == "noise" else None
        for values in itertools.product(*cfg.axes.values()):
            point_configs({**cfg.fixed, **dict(zip(cfg.axes, values))},
                          mixed)


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
