"""Named experiment recipes: canonical parameter sets for the headline plots.

Each recipe is a config-dict fragment; the CLI merges it underneath whatever
the user's config file and flags say, so any default can be overridden.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

_H_GRID = [float(f"{h:.12g}") for h in np.logspace(-5, 0, 40)]

RECIPES: dict[str, dict] = {
    # subharmonic imbalance plateau of the ideal-field probe
    "fig1-imbalance": {
        "command": "simulate",
        "L": 6, "epsilon": 0.1, "h_a_per_Jz": 0.0, "cycles": 50,
    },
    # QFI versus field amplitude across sizes (transition landscape)
    "fig2-qfi-sweep": {
        "command": "sweep",
        "L": [3, 4, 5, 6, 7], "h_a_per_Jz": _H_GRID,
        "epsilon": 0.1, "cycles": 10,
    },
    # QFI size scaling deep in the subharmonic phase
    "fig2-scaling": {
        "command": "sweep",
        "L": [3, 4, 5, 6, 7], "h_a_per_Jz": 1e-5, "epsilon": 0.1,
        "cycles": 10,
    },
    # off-resonant drive: QFI growth stalls near the kinematic optimum
    "fig3-offresonance": {
        "command": "simulate",
        "L": 5, "epsilon": 0.1, "h_a_per_Jz": 1e-2, "delta_f": 1e-2,
        "cycles": 90,
    },
    # crosstalk of the gradient onto the reference chain
    "fig4-crosstalk": {
        "command": "sweep",
        "L": 7, "epsilon": 0.1, "h_a_per_Jz": [1e-3, 1e-2],
        "eta": [0.0, 0.05, 0.1, 0.2], "cycles": 50,
    },
    # imperfect initialization (uniform single-site tilt)
    "fig5-init": {
        "command": "sweep",
        "L": 7, "epsilon": 0.1, "h_a_per_Jz": 1e-5,
        "theta_rad": [0.0, 0.01 * np.pi, 0.05 * np.pi, 0.1 * np.pi,
                      0.2 * np.pi],
        "cycles": 50,
    },
    # quench-imperfection landscape
    "fig6-epsilon": {
        "command": "sweep",
        "L": 5, "h_a_per_Jz": 1e-5,
        "epsilon": [0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3],
        "cycles": 50,
    },
    # measurement feasibility: CFIs alongside the QFI across sizes
    "fig7-cfi": {
        "command": "sweep",
        "L": [3, 4, 5, 6, 7], "h_a_per_Jz": 1e-5, "epsilon": 0.1,
        "cycles": 50,
    },
    # local dephasing: point-averaged Fisher growth
    "fig8-noise": {
        "command": "noise",
        "L": 3, "epsilon": 0.1, "h_a_per_Jz": 1e-5, "gamma_per_Jz": 1e-3,
        "cycles": 50, "dn": 5, "K": 10,
    },
    # experimental timing/sensitivity arithmetic for the bundled materials
    "expcalc": {
        "command": "expcalc",
        "material": "Dy", "L": 10,
    },
}


def recipe_config(name: str) -> dict:
    if name not in RECIPES:
        raise ConfigError(
            f"unknown recipe {name!r}; available: {', '.join(sorted(RECIPES))}")
    return {k: v for k, v in RECIPES[name].items() if k != "command"}

