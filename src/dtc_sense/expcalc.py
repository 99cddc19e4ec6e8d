"""Experimental-units arithmetic: drive timing, cycle budget, and sensitivity.

Maps a physical pair-exchange frequency and coherence time onto the probe's
drive schedule: the exchange half-period is t2 = 1/(2 pi f_pair), the drive
period equals t2 (the timing-limited convention), the cycle budget is how many
periods fit into the coherence window, and the shot rate is what's left.

The per-root-Hz sensitivity follows from the Cramer-Rao limit with the
resonant-QFI reference scale (not a ceiling) n_max^2 L^2 (L+1)^2 / pi^2;
`unit_scale` converts from the probe's dimensionless coupling units to the
caller's field-gradient units and defaults to 1 (one-point calibration
against a known reference is the intended usage; see calibrate_unit_scale).
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import ProbeConfig

#: f_pair (Hz) and coherence time (s) for the bundled material presets.
MATERIALS = {
    "Dy": {"f_pair_hz": 60.0, "coherence_s": 0.1},
    "Er": {"f_pair_hz": 29.4, "coherence_s": 0.1},
}


def expcalc(f_pair_hz: float, coherence_s: float, length: int,
            unit_scale: float = 1.0) -> dict[str, float]:
    """All derived timing and sensitivity quantities, as a flat record."""
    if not all(0.0 < x < np.inf for x in (f_pair_hz, coherence_s, unit_scale)):
        raise ConfigError("pair frequency, coherence time and unit scale must "
                          "be finite and positive")
    L = ProbeConfig(length=length).length  # ProbeConfig's rule for L
    t2_s = 1.0 / (2.0 * np.pi * f_pair_hz)
    period_s = t2_s
    n_max = int(np.floor(coherence_s / period_s))
    if n_max < 1:
        raise ConfigError(f"coherence_s = {coherence_s:g} s is shorter than "
                          f"one drive period ({period_s * 1e3:.6g} ms)")
    shots_per_s = 1.0 / (n_max * period_s)
    # exact bound-limited sensitivity, and the large-L form whose coefficient
    # is what experimental papers tend to quote (coeff / L^2)
    sens_exact = unit_scale * np.pi / (n_max * L * (L + 1) * np.sqrt(shots_per_s))
    coeff_l2 = unit_scale * np.pi / (n_max * np.sqrt(shots_per_s))
    return {
        "f_pair_hz": f_pair_hz,
        "coherence_s": coherence_s,
        "length": float(L),
        "unit_scale": unit_scale,
        "t2_ms": t2_s * 1e3,
        "period_ms": period_s * 1e3,
        "n_max": float(n_max),
        "shots_per_s": shots_per_s,
        "sensitivity": sens_exact,
        "sensitivity_coeff_per_l2": coeff_l2,
    }


def calibrate_unit_scale(target_coeff: float, f_pair_hz: float,
                         coherence_s: float) -> float:
    """One-point calibration: the unit_scale that makes the large-L
    sensitivity coefficient equal `target_coeff` at the reference inputs."""
    raw = expcalc(f_pair_hz, coherence_s, length=1)["sensitivity_coeff_per_l2"]
    return target_coeff / raw


def material_record(name: str, length: int = 10,
                    unit_scale: float = 1.0) -> dict[str, float]:
    if name not in MATERIALS:
        raise ConfigError(f"unknown material {name!r}; presets: {sorted(MATERIALS)}")
    preset = MATERIALS[name]
    return expcalc(preset["f_pair_hz"], preset["coherence_s"], length, unit_scale)
