"""The public names, the README's Python examples, the benchmark's set-up
probe and tests/recipe_outputs.py still work.

perfbench/setup_probe.py builds engines through the package's public API;
running it here makes an API change that would break the benchmark fail in
the test suite.  perfbench/traced_cli.py wraps named functions for its
per-layer metrics and skips a missing one with only a note on stderr, so
every name it wraps is checked here, and a tiny traced run of each engine
runs its work hooks, which read engine attributes.
"""
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dtc_sense
from dtc_sense.cli import _build_parser, _resolve_config
from dtc_sense.recipes import RECIPES

ROOT = Path(__file__).resolve().parents[1]
_POINT = {"L": 2, "epsilon": 0.1, "h_a_per_Jz": 1e-3, "delta_f": 0.0,
          "eta": 0.0, "theta_rad": 0.0, "gamma_per_Jz": 1e-3}


def _perfbench(name):
    # registered before it runs: dataclasses look their module up there
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the rule traced_cli._patch applies: a "Class.method" must be defined
    # on the class itself, a plain name on the module
    traced = _perfbench("traced_cli")
    missing = []
    for module_name, attr, *_ in traced.SPANS:
        module = importlib.import_module(f"dtc_sense.{module_name}")
        cls_name, _, name = attr.rpartition(".")
        owner = vars(getattr(module, cls_name, object)) if cls_name \
            else vars(module)
        if name not in owner:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in dtc_sense.__all__
               if not hasattr(dtc_sense, name)]
    assert missing == []


_LAZY_PROBE = """
import sys
import dtc_sense

def loaded():
    return sorted(m for m in sys.modules if m.startswith("dtc_sense."))

print(loaded())
dtc_sense.FloquetEngine
print(loaded())
try:
    dtc_sense.no_such_name
except AttributeError:
    print("AttributeError")
print(set(dtc_sense.__all__) <= set(dir(dtc_sense)))
cfg, field = dtc_sense.ProbeConfig(length=2), dtc_sense.FieldConfig(h_a=1e-3)
dtc_sense.FloquetEngine(cfg, field).apply_cycle(
    dtc_sense.initial_state_with_tangent(cfg), 1)
dtc_sense.LindbladEngine(cfg, field, 1e-3).apply_cycle(
    dtc_sense.initial_mixed_state(cfg), 1)
print(loaded())
x = dtc_sense.initial_mixed_state(cfg).x.repeat(2, axis=0)
dtc_sense.LindbladEngine(cfg, [field, dtc_sense.FieldConfig(h_a=1e6)],
                         1e-3).apply_cycle(dtc_sense.EngineState(x), 1)
print("scipy" in sys.modules)
"""


def test_package_loads_submodules_on_first_use():
    # one cycle of each engine, and of a two-field Lindblad batch, runs
    # without scipy, which pyproject does not declare (numpy is the only
    # runtime dependency); neither engine loads the readout layer, metrology
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['dtc_sense.errors']",
        "['dtc_sense.errors', 'dtc_sense.floquet', 'dtc_sense.model']",
        "AttributeError",
        "True",
        "['dtc_sense.errors', 'dtc_sense.floquet', 'dtc_sense.lindblad', "
        "'dtc_sense.model']",
        "False",
    ]


_NAMESPACE_PROBE = """
import types
import dtc_sense
{setup}
print([name for name in dtc_sense.__all__
       if isinstance(getattr(dtc_sense, name), types.ModuleType)])
print(callable(dtc_sense.expcalc))
"""


@pytest.mark.parametrize("setup", ["import dtc_sense.cli",
                                   "dtc_sense.MATERIALS"],
                         ids=["after_cli", "after_materials"])
def test_no_public_name_is_a_submodule(setup):
    # importing a submodule binds it on the package, over any public name
    # it shares; the CLI imports every submodule
    proc = subprocess.run(
        [sys.executable, "-c", _NAMESPACE_PROBE.format(setup=setup)],
        capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.parametrize("engine", ["floquet", "lindblad"])
def test_setup_probe_runs(engine):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         json.dumps(_POINT), engine],
        capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0


@pytest.mark.parametrize("command,config,spans", [
    # simulate is a sweep with no axes
    # record_trace looks its QFI function up per call, so the wrapped one
    # runs
    ("simulate", "", {"floquet.apply_cycle", "floquet.pair_gates",
                      "sweep.run_sweep", "metrology.qfi_pure"}),
    ("noise", "gamma_per_Jz = 1e-3\ndn = 1\nK = 2\n",
     {"lindblad.apply_cycle", "floquet.pair_gates", "metrology.qfi_mixed"}),
    ("sweep", "L = 2, 3\n", {"sweep.run_sweep", "sweep.emit_table"}),
])
def test_traced_cli_runs(tmp_path, command, config, spans):
    # the counter hooks run only under tracing; the Lindblad one reads
    # engine.substeps and engine.cfg
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\ncycles = 2\nh_a_per_Jz = 1e-3\n" + config)
    dump = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(dump),
         command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(dump.read_text())
    # model.spin_z_signs, a call counter of traced_cli, names a function the
    # package no longer has; every other traced name must resolve
    assert [name for name in traced["missing"]
            if name != "model.spin_z_signs"] == [], proc.stderr
    assert spans <= {name for name, *_ in traced["spans"]}
    if command == "noise":
        assert traced["counters"]["lindblad.apply_cycle.gflop_computed"] > 0
    # every table goes through emit_table, and the tracer reads its output
    # path from the third positional argument
    assert traced["counters"]["sweep.emit_table.bytes"] > 0


_README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                            (ROOT / "README.md").read_text(encoding="utf-8"),
                            re.M | re.S)


@pytest.mark.parametrize("block", _README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(_README_BLOCKS))])
def test_readme_python_examples_run(tmp_path, block):
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env=_env())
    assert proc.returncode == 0, proc.stderr


def _resolve(argv):
    return _resolve_config(_build_parser().parse_args(argv))


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_every_recipe_resolves_under_its_command(name):
    _resolve([RECIPES[name]["command"], "--recipe", name])


def test_every_benchmark_input_resolves(tmp_path):
    # every workload input perfbench/run.py feeds the CLI, and its oracle
    # companion point, passes the key checks (an unknown key, a count below
    # its minimum, a recipe of another command all exit 2) and resolves to
    # the fixed values and axes the workload states
    workloads = _perfbench("workloads")
    config, out = tmp_path / "run.cfg", str(tmp_path / "out.csv")
    for name in workloads.WORKLOADS:
        for seed in range(21):
            inputs = workloads.make_inputs(name, seed)
            config.write_text(inputs.config_text)
            cfg = _resolve(inputs.argv(str(config), out))
            assert cfg.axes == inputs.axes, (name, seed)
            assert {k: cfg.fixed[k] for k in inputs.params
                    if k not in inputs.axes} == \
                {k: v for k, v in inputs.params.items()
                 if k not in inputs.axes}, (name, seed)
            point = workloads.companion_point(inputs)
            if point is not None:
                config.write_text(workloads.config_text(point))
                _resolve(["simulate", "--config", str(config), "--out", out])


def test_recipe_outputs_script_writes_every_run(tmp_path):
    # tests/recipe_outputs.py is the parent/change byte-identity check; every
    # run it makes must exit 0 and leave its table, sidecar and stdout
    script = ROOT / "tests" / "recipe_outputs.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs = [*RECIPES, "fit", "transition-tilt0", "transition-tilt0.1",
            "sweep-mixed", "simulate-long", "noise-pure"]
    for name in runs:
        for suffix in (".csv", ".meta.txt"):
            assert (tmp_path / f"{name}{suffix}").stat().st_size > 0, name
        assert (tmp_path / f"{name}.stdout").read_text() \
            .endswith("exit 0\n"), name
    for name in ("fig8-noise", "noise-pure"):
        assert (tmp_path / f"{name}.pointavg.csv").exists(), name


def test_recipe_outputs_compare_prints_each_column_change(tmp_path):
    # --compare: a byte-identical file reads `identical`; a changed CSV
    # gives each column's largest absolute and relative change (a text
    # column: `differs`); a file on one side only makes it exit 1
    script = ROOT / "tests" / "recipe_outputs.py"
    before, after = tmp_path / "before", tmp_path / "after"
    for root, table in ((before, "n,qfi,name\n0,2,x\n1,4,y\n"),
                        (after, "n,qfi,name\n0,2.5,x\n1,4,z\n")):
        root.mkdir()
        (root / "t.csv").write_text(table)
        (root / "t.stdout").write_text("exit 0\n")

    def compare():
        return subprocess.run([sys.executable, str(script), "--compare",
                               str(before), str(after)],
                              capture_output=True, text=True, timeout=60)

    proc = compare()
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["file", "column", "max", "abs", "max", "rel"],
        ["t.csv", "n", "0", "0"], ["t.csv", "qfi", "0.5", "0.2"],
        ["t.csv", "name", "differs"], ["t.stdout", "identical"]]
    (after / "u.csv").write_text("n\n0\n")
    proc = compare()
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].split() == ["u.csv", "only", "in",
                                                    str(after)]
