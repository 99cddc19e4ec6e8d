import subprocess
import sys

import pytest

from dtc_sense import __version__
from dtc_sense.cli import main
from dtc_sense.errors import BoundaryPeakWarning
from dtc_sense.lindblad import noisy_fisher
from dtc_sense.metrology import point_average
from dtc_sense.model import FieldConfig, ProbeConfig
from dtc_sense.sweep import KEYS, _fmt


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _assert_sidecar(path):
    lines = path.read_text().splitlines()
    assert lines[0] == f"dtc-sense {__version__}"
    keys = [ln.split(" = ")[0] for ln in lines[1:]]
    assert keys == sorted(keys)


def test_simulate_writes_trace_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "L = 2\ncycles = 4\nh_a_per_Jz = 1e-3\n")
    out = tmp_path / "trace.csv"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "# resolved configuration" in stdout
    assert "wrote 5 rows" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "n,imbalance,qfi,cfi_comp,cfi_coll"
    assert lines[1].startswith("0,1,0,0,0")
    assert (tmp_path / "trace.meta.txt").exists()


def test_simulate_rejects_axes(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "L = 2, 3\ncycles = 2\n")
    rc = main(["simulate", "--config", cfg])
    assert rc == 2
    assert "sweep subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("transition", "L = 2, 3\n"),
    ("noise", "gamma_per_Jz = 1e-3, 2e-3\n"),
    ("expcalc", "L = 2, 3\n"),
])
def test_single_point_commands_reject_axes(tmp_path, capsys, command, text):
    cfg = _write(tmp_path, "run.cfg", text)
    assert main([command, "--config", cfg]) == 2
    assert "sweep subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["L = 3,\n", "L = 3,,4\n"])
def test_stray_comma_is_a_config_error_naming_its_key(tmp_path, capsys, text):
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "key 'L'" in err and "axes" not in err


@pytest.mark.parametrize("command,args,text,key", [
    ("simulate", ["--out", ""], "L = 2\ncycles = 2\n", "out"),
    ("simulate", [], "L = 2\ncycles = 2\nout =\n", "out"),
    ("fit", [], "in =\n", "in"),
    ("fit", [], "in = t.csv\nx =  # empty\n", "x"),
    ("fit", [], "in = t.csv\ny =\n", "y"),
    ("expcalc", [], "material =\n", "material"),
])
def test_empty_text_value_is_a_config_error_naming_its_key(
        tmp_path, monkeypatch, capsys, command, args, text, key):
    # an empty path or name is refused, not run under a default while the
    # sidecar records the empty value
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "c.cfg", text)
    assert main([command, "--config", cfg, *args]) == 2
    assert f"key {key!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def test_sweep_requires_axis(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "L = 2\ncycles = 2\n")
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_output_is_reproducible(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg",
                 "L = 2, 3\ncycles = 3\nh_a_per_Jz = 1e-3\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b),
                 "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "L,n,imbalance,qfi,cfi_comp,cfi_coll"


def test_resource_gate_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "L = 9\ncycles = 1\ntheta_rad = 0.1\n")
    rc = main(["simulate", "--config", cfg, "--out",
               str(tmp_path / "x.csv")])
    assert rc == 3
    assert "resource gate" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("simulate", "L = 17\ncycles = 1\n"),
    # noise at gamma = 0 runs, and is gated as, the pure engine
    ("noise", "L = 9\ngamma_per_Jz = 0\ntheta_rad = 0.1\n"
              "cycles = 2\ndn = 1\nK = 1\n"),
])
def test_gate_rejections_exit_3(tmp_path, capsys, command, text):
    cfg = _write(tmp_path, "run.cfg", text)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "resource gate" in capsys.readouterr().err


def test_tilt_zero_runs_beyond_the_full_space_gate(tmp_path, capsys):
    # L = 12 needs 4^12 amplitudes on the full space but 2^12 in the sector
    cfg = _write(tmp_path, "run.cfg", "L = 12\ncycles = 2\nh_a_per_Jz = 1e-5\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_fit_on_sweep_output(tmp_path, capsys):
    sweep_cfg = _write(tmp_path, "s.cfg",
                       "L = 2, 3, 4\ncycles = 5\nh_a_per_Jz = 1e-5\n")
    table = tmp_path / "scaling.csv"
    assert main(["sweep", "--config", sweep_cfg, "--out", str(table)]) == 0
    capsys.readouterr()
    fit_cfg = _write(tmp_path, "f.cfg", f"in = {table}\nx = L\ny = qfi\n")
    fit_out = tmp_path / "fit.csv"
    rc = main(["fit", "--config", fit_cfg, "--out", str(fit_out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "# fitting rows at n = 5" in stdout
    assert "exponent =" in stdout
    header, values = fit_out.read_text().splitlines()
    assert header == "exponent,prefactor,r_squared"
    assert len(values.split(",")) == 3
    _assert_sidecar(tmp_path / "fit.meta.txt")


def test_fit_writes_integral_values_as_integers(tmp_path, capsys):
    table = _write(tmp_path, "t.csv",
                   "L,qfi\n2,16\n3,54\n4,128\n5,250\n")  # qfi = 2 L^3
    cfg = _write(tmp_path, "f.cfg", f"in = {table}\nx = L\ny = qfi\n")
    out = tmp_path / "fit.csv"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == b"exponent,prefactor,r_squared\n3,2,1\n"


def test_fit_requires_input_path(tmp_path, capsys):
    assert main(["fit"]) == 2
    assert "in = " in capsys.readouterr().err


def test_fit_unknown_column(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "L = 2, 3, 4\ncycles = 2\n")
    table = tmp_path / "t.csv"
    assert main(["sweep", "--config", cfg, "--out", str(table)]) == 0
    fit_cfg = _write(tmp_path, "f.cfg", f"in = {table}\nx = nope\n")
    assert main(["fit", "--config", fit_cfg]) == 2


def test_fit_too_few_points(tmp_path, capsys):
    # a two-value axis cannot support a power-law fit; must be a clean
    # config error, not a traceback
    cfg = _write(tmp_path, "s.cfg", "L = 3, 4\ncycles = 2\n")
    table = tmp_path / "t.csv"
    assert main(["sweep", "--config", cfg, "--out", str(table)]) == 0
    capsys.readouterr()
    fit_cfg = _write(tmp_path, "f.cfg", f"in = {table}\nx = L\ny = qfi\n")
    assert main(["fit", "--config", fit_cfg]) == 2
    assert "at least 3 rows" in capsys.readouterr().err


def test_fit_on_equal_abscissae_is_a_config_error(tmp_path, capsys):
    # three rows at L = 3 (n = 10) leave no line in ln L to fit
    table = _write(tmp_path, "t.csv", "L,n,qfi\n3,10,1\n3,10,2\n3,10,4\n")
    cfg = _write(tmp_path, "f.cfg", f"in = {table}\n")
    fit_out = tmp_path / "fit.csv"
    assert main(["fit", "--config", cfg, "--out", str(fit_out)]) == 2
    captured = capsys.readouterr()
    assert "column 'L'" in captured.err and "distinct" in captured.err
    assert "exponent =" not in captured.out and not fit_out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_on_a_non_finite_n_column_is_a_config_error(tmp_path, capsys,
                                                        value):
    # with no `n` key, fit picks the last cycle, int(max of column n): a nan
    # there raised ValueError and an inf OverflowError, with a traceback
    table = _write(tmp_path, "t.csv",
                   f"L,n,qfi\n3,10,1\n4,10,2\n5,{value},4\n6,10,8\n")
    cfg = _write(tmp_path, "f.cfg", f"in = {table}\n")
    fit_out = tmp_path / "fit.csv"
    assert main(["fit", "--config", cfg, "--out", str(fit_out)]) == 2
    err = capsys.readouterr().err
    assert "column 'n'" in err and table in err and value in err
    assert not fit_out.exists()


def test_fit_with_an_n_key_skips_a_non_finite_row(tmp_path, capsys):
    table = _write(tmp_path, "t.csv",
                   "L,n,qfi\n3,10,1\n4,10,2\n5,nan,4\n6,10,8\n")
    cfg = _write(tmp_path, "f.cfg", f"in = {table}\nn = 10\n")
    assert main(["fit", "--config", cfg]) == 0
    assert "fitting rows at n = 10" in capsys.readouterr().out


@pytest.mark.parametrize("out", [False, True])
def test_fit_beyond_float_range_is_a_numerical_error(tmp_path, capsys, out):
    # y = x * 1e600: the exponent is 1 but the prefactor overflows to inf
    table = _write(tmp_path, "t.csv", "x,y\n1e-300,1e300\n2e-300,2e300\n"
                   "4e-300,4e300\n")
    cfg = _write(tmp_path, "f.cfg", f"in = {table}\nx = x\ny = y\n")
    fit_out = tmp_path / "fit.csv"
    argv = ["fit", "--config", cfg] + (["--out", str(fit_out)] if out else [])
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "power-law fit is not finite" in captured.err
    assert "Traceback" not in captured.err and "prefactor =" not in captured.out
    assert not fit_out.exists()


def test_transition_reports_peak(tmp_path, capsys):
    # an interior peak of the default 40-point grid
    cfg = _write(tmp_path, "t.cfg", "L = 3\nn = 10\n")
    out = tmp_path / "trans.csv"
    rc = main(["transition", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "h_a_max = 0.587134" in capsys.readouterr().out
    header, row = out.read_text().splitlines()
    assert header == "L,n,h_a_max"
    assert row.split(",")[:2] == ["3", "10"]
    assert float(row.split(",")[2]) == pytest.approx(0.587134, abs=1e-6)
    _assert_sidecar(tmp_path / "trans.meta.txt")


def test_transition_warns_on_a_peak_at_the_grid_edge(tmp_path, capsys):
    # at L = 2 and n = 4 the QFI still grows at the grid's upper edge
    cfg = _write(tmp_path, "t.cfg", "L = 2\nn = 4\ngrid_points = 10\n")
    out = tmp_path / "trans.csv"
    with pytest.warns(BoundaryPeakWarning):
        assert main(["transition", "--config", cfg, "--out", str(out)]) == 0
    assert "h_a_max = 1\n" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "2,4,1"


def test_transition_runs_from_the_tilted_state(tmp_path, capsys):
    # the tilt-0 search at these settings peaks at 0.587134
    cfg = _write(tmp_path, "t.cfg", "L = 3\nn = 10\ntheta_rad = 0.1\n")
    assert main(["transition", "--config", cfg]) == 0
    assert "h_a_max = 0.583816" in capsys.readouterr().out


def test_noise_writes_trace_and_point_averages(tmp_path, capsys):
    cfg = _write(tmp_path, "n.cfg",
                 "L = 2\ngamma_per_Jz = 1e-3\nh_a_per_Jz = 1e-3\n"
                 "cycles = 6\ndn = 2\nK = 3\n")
    out = tmp_path / "noise.csv"
    rc = main(["noise", "--config", cfg, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "growth exponent alpha" in stdout
    assert out.exists()
    pa = tmp_path / "noise.pointavg.csv"
    lines = pa.read_text().splitlines()
    assert lines[0] == "n_mid,n_cumulative,qfi,cfi_comp,cfi_coll"
    assert len(lines) == 4  # K = 3 windows
    assert lines[1].split(",")[0] == "1"  # n_mid = dn(i - 1/2) = 1
    # every line follows the one number rule on point_average's values
    pa_ref = point_average(noisy_fisher(
        ProbeConfig(length=2), [FieldConfig(h_a=1e-3)], 1e-3, 6)[0], 2, 3)
    assert lines[1:] == [",".join(_fmt(pa_ref[k][i]) for k in (
        "n_mid", "n_cumulative", "qfi", "cfi_computational",
        "cfi_collective")) for i in range(3)]


_NOISE_CFG = ("L = 1\ngamma_per_Jz = 1e-3\nh_a_per_Jz = 1e-3\n"
              "cycles = 4\ndn = 2\nK = 2\n")


def test_noise_point_averages_stay_in_dotted_output_dir(tmp_path, capsys):
    cfg = _write(tmp_path, "n.cfg", _NOISE_CFG)
    out_dir = tmp_path / "run.d"
    out_dir.mkdir()
    rc = main(["noise", "--config", cfg, "--out", str(out_dir / "noise")])
    assert rc == 0
    assert (out_dir / "noise.pointavg.csv").exists()
    assert not (tmp_path / "run.pointavg.csv").exists()


_COMMAND_CFGS = {
    "fit": "in = {table}\nx = L\ny = qfi\n",
    "transition": "L = 1\nn = 2\ngrid_points = 5\n",
    "expcalc": "material = Dy\n",
    "noise": _NOISE_CFG,
}


@pytest.mark.parametrize("command", sorted(_COMMAND_CFGS))
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command):
    table = _write(tmp_path, "t.csv", "L,qfi\n2,1\n3,5\n4,20\n")
    cfg = _write(tmp_path, "c.cfg", _COMMAND_CFGS[command].format(table=table))
    if command == "noise":
        # the trace CSV is writable; only its point-average file is not
        out = tmp_path / "noise.csv"
        (tmp_path / "noise.pointavg.csv").mkdir()
    else:
        out = tmp_path / "missing" / "out.csv"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "cannot write output" in capsys.readouterr().err


# per command: a config that runs from an empty working directory
_ROUTE_RUNS = {
    "simulate": "L = 2\ncycles = 2\n",
    "sweep": "L = 2, 3\ncycles = 2\n",
    "fit": "in = {table}\n",
    "transition": "L = 1\nn = 2\ngrid_points = 5\n",
    "noise": _NOISE_CFG,
    "expcalc": "material = Dy\n",
}


@pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
@pytest.mark.parametrize("command", sorted(_ROUTE_RUNS))
def test_every_command_writes_its_table_by_one_route(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     out):
    # main alone writes each command's table: to `out`, else to
    # <command>.csv for the trace commands, else nowhere; it ends stdout
    # with one line for the file.  noise also writes its point averages.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    table = _write(tmp_path, "t.csv", "L,qfi\n2,16\n3,54\n4,128\n")
    cfg = _write(tmp_path, "c.cfg", _ROUTE_RUNS[command].format(table=table))
    argv = [command, "--config", cfg] + (["--out", "o.csv"] if out else [])
    assert main(argv) == 0
    stdout = capsys.readouterr().out.splitlines()
    name = "o" if out else command
    written = {f"{name}.csv", f"{name}.meta.txt"} \
        if out or command in ("simulate", "sweep", "noise") else set()
    if command == "noise":
        written.add(f"{name}.pointavg.csv")
    assert {p.name for p in run_dir.iterdir()} == written
    if written:
        rows = len((run_dir / f"{name}.csv").read_text().splitlines()) - 1
        assert stdout[-1] == f"wrote {rows} rows to {name}.csv"
        _assert_sidecar(run_dir / f"{name}.meta.txt")
    else:
        assert not any(line.startswith("wrote") for line in stdout)


_QUARTER_TILT = "L = 3\ntheta_rad = 0.7853981633974483\ncycles = 4\n"


@pytest.mark.parametrize("command,extra", [
    pytest.param("simulate", "", id="simulate"),
    pytest.param("noise", "gamma_per_Jz = 1e-3\ndn = 2\nK = 2\n", id="noise"),
])
def test_zero_initial_imbalance_is_a_numerical_error(tmp_path, capsys,
                                                     command, extra):
    # at tilt pi/4 the initial imbalance vanishes, so the normalized trace
    # is undefined and nothing may be written
    cfg = _write(tmp_path, "c.cfg", _QUARTER_TILT + extra)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "zero imbalance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [
    pytest.param("simulate", "", id="simulate"),
    pytest.param("noise", "dn = 2\nK = 5\n", id="noise"),
])
def test_non_finite_state_is_a_numerical_error(tmp_path, capsys, command,
                                               extra):
    # at h_a = 1e20 the dephased channel's rho is NaN after cycle 1; the run
    # stops there, before a readout, and writes nothing
    cfg = _write(tmp_path, "c.cfg", "L = 3\ncycles = 10\ngamma_per_Jz = 1e-3\n"
                 "h_a_per_Jz = 1e20\n" + extra)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "not finite after cycle 1" in capsys.readouterr().err
    assert not out.exists()


_NOISE_L2 = "L = 2\ngamma_per_Jz = 1e-3\ncycles = 20\n"


@pytest.mark.parametrize("command,text", [
    pytest.param("simulate", "L = 2\ncycles = -1\n", id="simulate-cycles"),
    pytest.param("sweep", "L = 2, 3\ncycles = -1\n", id="sweep-cycles"),
    pytest.param("sweep", "L = 2, 3\nworkers = 0\n", id="sweep-workers"),
    pytest.param("transition", "L = 2\nn = -1\n", id="transition-n"),
    pytest.param("transition", "L = 2\ngrid_points = 0\n",
                 id="transition-grid_points"),
    pytest.param("noise", _NOISE_L2 + "dn = 5\nK = 10\n",
                 id="noise-windows-exceed-cycles"),
    pytest.param("noise", _NOISE_L2 + "dn = 0\n", id="noise-dn"),
    pytest.param("simulate", "L = 2\ngamma_per_Jz = -1\n",
                 id="simulate-gamma"),
    pytest.param("noise", "L = 2\ngamma_per_Jz = -1\n", id="noise-gamma"),
])
def test_invalid_counts_are_config_errors(tmp_path, capsys, command, text):
    cfg = _write(tmp_path, "c.cfg", text)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "transition", "expcalc"])
def test_workers_flag_below_minimum_is_a_config_error(tmp_path, capsys,
                                                      command):
    # checked as the flag merges, also where the command never reads it
    assert main([command, "--workers", "0"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    ("L = 2\ncylces = 2\n", "cylces"),
    ("recipe = fig1-imbalance\n", "recipe"),
    ("command = sweep\n", "command"),
])
def test_unknown_key_is_a_config_error(tmp_path, capsys, text, key):
    cfg = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# per command: a config that runs, and the keys it read but leaves unset
_SIDECAR_RUNS = {
    "simulate": ("L = 2\ncycles = 2\n", set()),
    "sweep": ("L = 2, 3\ncycles = 2\n", set()),
    "fit": ("in = {table}\nn = 2\n", set()),
    "transition": ("L = 1\nn = 2\ngrid_points = 5\n", set()),
    "noise": (_NOISE_CFG, set()),
    "expcalc": ("f_pair_hz = 60\ncoherence_s = 0.1\n", {"material"}),
}


@pytest.mark.parametrize("command", sorted(_SIDECAR_RUNS))
def test_sidecar_holds_the_keys_the_command_reads(tmp_path, capsys,
                                                  command):
    # every run also sets keys other commands read (workers, x, dn,
    # grid_points); the sidecar and the printed configuration leave those
    # out and hold every key of the command's own, defaults included
    table = _write(tmp_path, "t.csv", "L,n,qfi\n2,2,16\n3,2,54\n4,2,128\n")
    text, unset = _SIDECAR_RUNS[command]
    cfg = _write(tmp_path, "c.cfg", text.format(table=table)
                 + "x = L\ndn = 1\ngrid_points = 3\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--workers", "1"]) == 0
    expected = sorted(k for k, spec in KEYS.items()
                      if command in spec.commands and k not in unset)
    _assert_sidecar(tmp_path / "out.meta.txt")
    sidecar = (tmp_path / "out.meta.txt").read_text().splitlines()[1:]
    assert [ln.split(" = ")[0] for ln in sidecar] == expected
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "# resolved configuration"
    assert printed[1:1 + len(expected)] == sidecar


@pytest.mark.parametrize("text", ["L = 2, 2\n", "h_a_per_Jz = 1e-3, 0.001\n"])
def test_repeated_axis_value_is_a_config_error(tmp_path, capsys, text):
    # run_sweep keys its results by axis values: a repeat would run twice
    # and be written once
    cfg = _write(tmp_path, "c.cfg", text + "cycles = 2\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "repeated value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["0", "1e-3"])
def test_noise_trace_is_the_simulate_trace(tmp_path, capsys, gamma):
    # noise runs the engine simulate runs at the same point, pure at
    # gamma = 0 and dephased above it
    cfg = _write(tmp_path, "c.cfg", "L = 3\ncycles = 10\nh_a_per_Jz = 1e-5\n"
                 f"gamma_per_Jz = {gamma}\ndn = 2\nK = 5\n")
    for command in ("noise", "simulate"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / f"{command}.csv")]) == 0
    assert (tmp_path / "noise.csv").read_bytes() \
        == (tmp_path / "simulate.csv").read_bytes()


@pytest.mark.parametrize("command,recipe,owner", [
    ("simulate", "expcalc", "expcalc"),
    ("noise", "fig1-imbalance", "simulate"),
])
def test_recipe_of_another_command_is_a_config_error(tmp_path, capsys,
                                                     command, recipe, owner):
    out = tmp_path / "o.csv"
    assert main([command, "--recipe", recipe, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{recipe!r}" in err and owner in err and command in err
    assert not out.exists()


@pytest.mark.parametrize("command,text", [
    pytest.param("simulate", "h_a_per_Jz = inf\n", id="simulate-h_a-inf"),
    pytest.param("simulate", "h_a_per_Jz = nan\n", id="simulate-h_a-nan"),
    pytest.param("simulate", "delta_f = inf\n", id="simulate-delta_f-inf"),
    pytest.param("noise", "gamma_per_Jz = nan\ndn = 1\nK = 2\n",
                 id="noise-gamma-nan"),
])
def test_non_finite_values_are_config_errors(tmp_path, capsys, command,
                                             text):
    # NaN slips through every range check and used to crash the CSV writer
    cfg = _write(tmp_path, "c.cfg", "L = 2\ncycles = 4\n" + text)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_expcalc_prints_all_presets(capsys):
    assert main(["expcalc"]) == 0
    stdout = capsys.readouterr().out
    assert "[Dy]" in stdout and "[Er]" in stdout
    assert "n_max=37" in stdout


def test_expcalc_custom_inputs(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg",
                 "f_pair_hz = 60\ncoherence_s = 0.1\nL = 10\n")
    out = tmp_path / "exp.csv"
    assert main(["expcalc", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("material,f_pair_hz")
    assert lines[1].startswith("custom,60,")
    assert (tmp_path / "exp.meta.txt").exists()


def test_expcalc_recipe_table_bytes(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert main(["expcalc", "--recipe", "expcalc", "--out", str(out)]) == 0
    assert out.read_text() == (
        "material,f_pair_hz,coherence_s,length,unit_scale,t2_ms,period_ms,"
        "n_max,shots_per_s,sensitivity,sensitivity_coeff_per_l2\n"
        "Dy,60,0.1,10,1,2.65258238486,2.65258238486,37,10.1889491468,"
        "0.000241819192235,0.0266001111458\n")


def test_expcalc_half_specified_custom_input(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg", "f_pair_hz = 60\n")
    assert main(["expcalc", "--config", cfg]) == 2


def test_expcalc_material_with_custom_inputs(tmp_path, capsys):
    # the custom inputs would shape the table and the material would not,
    # yet the sidecar would record both
    cfg = _write(tmp_path, "e.cfg",
                 "material = Er\nf_pair_hz = 60\ncoherence_s = 0.1\n")
    assert main(["expcalc", "--config", cfg]) == 2
    assert "material preset instead" in capsys.readouterr().err


@pytest.mark.parametrize("f_pair_hz, coherence_s", [
    pytest.param(1e300, 1e300, id="infinite-budget"),
    pytest.param(60, 1e300, id="bound-overflows"),
    pytest.param(1e200, 1e-50, id="rate-overflows"),
])
def test_expcalc_budget_beyond_float_range_is_a_config_error(
        tmp_path, capsys, f_pair_hz, coherence_s):
    # an infinite cycle budget used to raise OverflowError in int(), and a
    # finite one whose integer qfi_bound overflows the float division did
    # too (exit 1, with a traceback); a bound times a shot rate beyond float
    # range gave a sensitivity of 0
    cfg = _write(tmp_path, "e.cfg", f"f_pair_hz = {f_pair_hz}\n"
                 f"coherence_s = {coherence_s}\nL = 3\n")
    out = tmp_path / "exp.csv"
    assert main(["expcalc", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "f_pair_hz" in err and "coherence_s" in err
    assert "Traceback" not in err and not out.exists()


def test_expcalc_unknown_material(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg", "material = Tb\n")
    assert main(["expcalc", "--config", cfg]) == 2


def test_recipe_with_config_override(tmp_path, capsys):
    # config file entries land after the recipe and must win
    cfg = _write(tmp_path, "o.cfg", "L = 3\ncycles = 4\n")
    out = tmp_path / "fig1.csv"
    rc = main(["simulate", "--recipe", "fig1-imbalance", "--config", cfg,
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "L = 3" in stdout
    assert len(out.read_text().splitlines()) == 6


def test_unknown_recipe_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["simulate", "--recipe", "not-a-recipe"])


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2


def test_undecodable_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"L = 2\n\xff\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"cannot read config file {cfg}" in capsys.readouterr().err


_UNREADABLE = "cannot read results file {table}"
_EMPTY = "results file {table} is empty or has no header"


@pytest.mark.parametrize("content,message", [
    (b"x,y\n1,2\n\xff,3\n4,5\n", _UNREADABLE),  # not UTF-8
    (b"x,y\n1,2\n3\n4,5\n", _UNREADABLE),  # the third line has one field
    (b"", _EMPTY),
    (b"\n", _EMPTY),
    (b"n,qfi\n", _EMPTY),
], ids=["undecodable", "ragged", "empty", "blank-line", "header-only"])
def test_unreadable_fit_input(tmp_path, capsys, content, message):
    table = tmp_path / "t.csv"
    table.write_bytes(content)
    cfg = _write(tmp_path, "f.cfg", f"in = {table}\nx = x\ny = y\n")
    assert main(["fit", "--config", cfg]) == 2
    assert message.format(table=table) in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("L", "three"), ("cycles", "2.5")])
def test_unparsable_value_is_a_config_error(tmp_path, capsys, key, value):
    cfg = _write(tmp_path, "c.cfg", f"{key} = {value}\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"line 1: cannot parse value {value!r} for key {key!r}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_text_config_values_are_taken_whole(tmp_path, capsys):
    # a comma in a text key's value is part of the path, as with --out
    cfg = _write(tmp_path, "run.cfg",
                 f"L = 2\ncycles = 2\nout = {tmp_path / 'a,b.csv'}\n")
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "a,b.csv").exists()
    assert (tmp_path / "a,b.meta.txt").exists()
    table = _write(tmp_path, "x,y.csv", "L,qfi\n2,16\n3,54\n4,128\n")
    cfg = _write(tmp_path, "f.cfg", f"in = {table}\n")
    assert main(["fit", "--config", cfg]) == 0
    assert "exponent = 3\n" in capsys.readouterr().out
    # a numeric key's value still splits, and only an axis key takes a list
    cfg = _write(tmp_path, "c.cfg", "L = 2\ncycles = 5, 6\n")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "line 2: key 'cycles' is not sweepable" in capsys.readouterr().err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dtc_sense.cli", "expcalc"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "[Dy]" in proc.stdout


def test_cli_import_leaves_process_pools_unloaded():
    # --workers 1 never needs a process pool, so importing the CLI must not
    # pay for multiprocessing
    code = ("import sys, dtc_sense.cli; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
