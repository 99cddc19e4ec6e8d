import numpy as np
import pytest

from dtc_sense.errors import ConfigError
from dtc_sense.metrology import MATERIALS, calibrate_unit_scale, expcalc, material_record


def test_dysprosium_timing():
    rec = material_record("Dy", length=10)
    assert rec["t2_ms"] == pytest.approx(2.65258, abs=1e-5)
    assert rec["period_ms"] == rec["t2_ms"]
    assert rec["n_max"] == 37
    assert rec["shots_per_s"] == pytest.approx(10.18895, abs=1e-5)


def test_erbium_timing():
    rec = material_record("Er", length=10)
    assert rec["t2_ms"] == pytest.approx(5.41343, abs=1e-5)
    assert rec["n_max"] == 18


def test_sensitivity_scales_inverse_l_squared():
    small = expcalc(60.0, 0.1, length=5)
    large = expcalc(60.0, 0.1, length=50)
    ratio = small["sensitivity"] / large["sensitivity"]
    assert ratio == pytest.approx((50 * 51) / (5 * 6), rel=1e-12)
    # the quoted coefficient strips exactly the L(L+1) factor
    assert small["sensitivity_coeff_per_l2"] == pytest.approx(
        small["sensitivity"] * 5 * 6, rel=1e-12)


def test_uncalibrated_dy_coefficient():
    rec = material_record("Dy")
    assert rec["sensitivity_coeff_per_l2"] == pytest.approx(0.0266, abs=5e-4)


def test_one_point_calibration_roundtrip():
    scale = calibrate_unit_scale(0.0270, 60.0, 0.1)
    rec = expcalc(60.0, 0.1, length=10, unit_scale=scale)
    assert rec["sensitivity_coeff_per_l2"] == pytest.approx(0.0270, rel=1e-12)
    assert 0.9 < scale < 1.1


def test_cycle_budget_floors():
    # just below and above an integer number of periods
    t2 = 1.0 / (2 * np.pi * 60.0)
    assert expcalc(60.0, 37 * t2 * 0.999, 1)["n_max"] == 36
    assert expcalc(60.0, 37 * t2 * 1.001, 1)["n_max"] == 37


def test_input_validation():
    with pytest.raises(ConfigError):
        expcalc(0.0, 0.1, 10)
    with pytest.raises(ConfigError):
        expcalc(60.0, -1.0, 10)
    with pytest.raises(ConfigError):
        expcalc(60.0, 0.1, 0)
    # non-finite inputs, a non-positive unit scale and a length that is not
    # an integer (ProbeConfig's rule)
    for args in ((float("nan"), 0.1, 3), (60.0, float("inf"), 3),
                 (60.0, 0.1, 3, float("nan")), (60.0, 0.1, 3, 0.0),
                 (60.0, 0.1, 2.5), (60.0, 0.1, True)):
        with pytest.raises(ConfigError):
            expcalc(*args)
    with pytest.raises(ConfigError):
        material_record("Tb")
    # 1 ms is shorter than one 2.65 ms period at 60 Hz: no cycle fits
    with pytest.raises(ConfigError, match="coherence_s.*2.65258 ms"):
        expcalc(60.0, 0.001, 4)


def test_presets_present():
    assert set(MATERIALS) == {"Dy", "Er"}
    assert MATERIALS["Dy"]["f_pair_hz"] == 60.0
