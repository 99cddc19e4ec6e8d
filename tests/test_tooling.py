"""The public names and the benchmark's set-up probe still work.

perfbench/setup_probe.py builds engines through the package's public API;
running it here makes an API change that would break the benchmark fail in
the test suite.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtc_sense

ROOT = Path(__file__).resolve().parents[1]
_POINT = {"L": 2, "epsilon": 0.1, "h_a_per_Jz": 1e-3, "delta_f": 0.0,
          "eta": 0.0, "theta_rad": 0.0, "gamma_per_Jz": 1e-3}


def test_every_public_name_resolves():
    missing = [name for name in dtc_sense.__all__
               if not hasattr(dtc_sense, name)]
    assert missing == []


@pytest.mark.parametrize("engine", ["floquet", "lindblad"])
def test_setup_probe_runs(engine):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         json.dumps(_POINT), engine],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0
