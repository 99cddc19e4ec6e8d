"""The benchmark's output checks must count every bad output as a failure.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import math
import os
import sys
import time

import pytest

from checks import Tally, check_oracle, verify_run
from traced_cli import Tracer, summarize
from workloads import WORKLOADS, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _table(inputs, qfi_scale=1.0) -> str:
    """A table of the shape `inputs` implies, with QFI >= CFI_comp >= CFI_coll."""
    lines = [",".join(inputs.header)]
    keys = [()]
    for values in inputs.axes.values():
        keys = [k + (v,) for k in keys for v in values]
    for key in keys:
        for n in range(inputs.cycles + 1):
            qfi = qfi_scale * n * n
            row = list(key) + [n, (-0.9) ** n, qfi, 0.5 * n * n, 0.25 * n * n]
            lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def _pointavg(table: str, dn: int, K: int) -> str:
    rows = [[float(x) for x in line.split(",")]
            for line in table.splitlines()[1:]]
    lines = ["n_mid,n_cumulative,qfi,cfi_comp,cfi_coll"]
    for i in range(1, K + 1):
        window = rows[(i - 1) * dn + 1: i * dn + 1]
        means = [sum(r[j] for r in window) / dn for j in (2, 3, 4)]
        lines.append(",".join(f"{v:.12g}" for v in
                              [dn * (i - 0.5), dn * i * (i + 1) / 2] + means))
    return "\n".join(lines) + "\n"


def _files(inputs, table: str) -> dict[str, bytes]:
    files = {"out.csv": table.encode(), "out.meta.txt": b"dtc-sense 0.1.0\n"}
    if inputs.workload.command == "noise":
        files["out.pointavg.csv"] = _pointavg(
            table, inputs.params["dn"], inputs.params["K"]).encode()
    return files


def _failures(inputs, files, exit_code=0, reference=None) -> int:
    tally = Tally()
    tally.record("run", verify_run(exit_code, files, inputs, reference))
    assert tally.attempted == 1
    return tally.failed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_well_formed_output_passes(name):
    inputs = make_inputs(name, 3)
    files = _files(inputs, _table(inputs))
    assert verify_run(0, files, inputs, dict(files)) == []


def test_qfi_below_cfi_is_a_failure():
    inputs = make_inputs("qfi-sweep", 0)
    assert _failures(inputs, _files(inputs, _table(inputs, qfi_scale=0.4))) == 1


def test_truncated_table_is_a_failure():
    inputs = make_inputs("init-tilt", 0)
    table = _table(inputs)
    cut = "\n".join(table.splitlines()[:-3]) + "\n"
    assert _failures(inputs, _files(inputs, cut)) == 1
    # a row cut mid-line is caught as well
    assert _failures(inputs, _files(inputs, table[:-7])) == 1


def test_nan_is_a_failure():
    inputs = make_inputs("trace-L8", 0)
    table = _table(inputs).replace(",0.5,", ",nan,", 1)
    assert "nan" in table
    assert _failures(inputs, _files(inputs, table)) == 1


def test_byte_different_rerun_is_a_failure():
    inputs = make_inputs("dephased", 0)
    first = _files(inputs, _table(inputs))
    rerun = dict(first, **{"out.meta.txt": b"dtc-sense 0.1.0\nK = 9\n"})
    assert _failures(inputs, rerun, reference=first) == 1
    assert _failures(inputs, first, reference=first) == 0


def test_exit_code_imbalance_and_point_average_failures():
    inputs = make_inputs("dephased", 0)
    good = _files(inputs, _table(inputs))
    assert _failures(inputs, good, exit_code=4) == 1
    assert _failures(inputs, {}, exit_code=0) == 1
    big = _table(inputs).replace("\n1,-0.9,", "\n1,-1.5,", 1)
    assert _failures(inputs, dict(good, **{"out.csv": big.encode()})) == 1
    pointavg = good["out.pointavg.csv"].decode().splitlines()
    pointavg[3] = pointavg[3].rsplit(",", 1)[0] + ",123"
    bad = dict(good, **{"out.pointavg.csv": "\n".join(pointavg).encode()})
    assert _failures(inputs, bad) == 1


def test_oracle_mismatch_is_reported():
    oracle = {"imbalance": -0.5, "qfi": 40.0}
    assert check_oracle({"imbalance": -0.5, "qfi": 40.0 * (1 + 1e-9)},
                        oracle) == []
    assert len(check_oracle({"imbalance": -0.5, "qfi": 40.1}, oracle)) == 1
    assert len(check_oracle({"imbalance": -0.49, "qfi": 40.0}, oracle)) == 1


def _coverage(wrap_helper: bool) -> float:
    """trace.coverage of a dispatcher calling a traced layer and a helper."""
    tracer = Tracer()
    layer = tracer.span("model.layer", lambda: time.sleep(0.05))
    helper = lambda: time.sleep(0.05)  # noqa: E731
    if wrap_helper:
        helper = tracer.span("model.helper", helper)

    def dispatch():
        layer()
        helper()

    start = time.perf_counter()
    tracer.span("cli.main", dispatch)()
    wall = time.perf_counter() - start
    return summarize({"spans": tracer.spans,
                      "counters": tracer.counters})["covered_s"] / wall


def test_unwrapped_work_lowers_trace_coverage():
    assert _coverage(wrap_helper=True) > 0.95
    assert 0.3 < _coverage(wrap_helper=False) < 0.7


def test_seed_zero_is_the_recipe():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dtc_sense.recipes import RECIPES

    for name, w in WORKLOADS.items():
        inputs = make_inputs(name, 0)
        if w.recipe is None:
            continue
        assert inputs.config_text == ""
        recipe = RECIPES[w.recipe]
        for key, value in recipe.items():
            if key == "command":
                continue
            got = inputs.axes.get(key, inputs.params.get(key))
            assert got == pytest.approx(value, rel=1e-12), (name, key)


@pytest.mark.parametrize("seed", range(1, 30))
def test_seeds_keep_sizes_and_regime(seed):
    for name in WORKLOADS:
        base, inputs = make_inputs(name, 0), make_inputs(name, seed)
        assert inputs == make_inputs(name, seed)
        assert (inputs.points, inputs.cycles) == (base.points, base.cycles)
        assert 0.05 <= inputs.params["epsilon"] <= 0.15
        for key in ("L", "delta_f", "eta", "gamma_per_Jz"):
            assert inputs.params.get(key) == base.params.get(key)
            assert inputs.axes.get(key) == base.axes.get(key)
        for values in inputs.axes.values():
            assert values == sorted(set(values))
        if "h_a_per_Jz" in inputs.axes:
            assert all(1e-5 <= h <= 1.0 for h in inputs.axes["h_a_per_Jz"])
        else:
            assert 3e-6 <= inputs.params["h_a_per_Jz"] <= 3e-5
        tilts = inputs.axes.get("theta_rad", [inputs.params["theta_rad"]])
        assert tilts[0] == 0.0
        assert all(0 < t < math.pi / 4 for t in tilts[1:])
