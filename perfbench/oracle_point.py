"""Imbalance and QFI at one pure-state point from the dense scipy oracle.

    python perfbench/oracle_point.py '<json point>'

Uses tests/oracles.py as it stands in the checkout, so the reference follows
any later convention fix there.  Prints {"imbalance": ..., "qfi": ...} for
cycle n = point["cycles"].  Runs in its own process so that the benchmark's
parent process stays small: a child's peak RSS can include its parent's.
"""
import json
import sys

import numpy as np

import oracles
from dtc_sense.model import FieldConfig, InitConfig, ProbeConfig


def main(point: dict) -> dict:
    cfg = ProbeConfig(length=int(point["L"]), epsilon=point["epsilon"])
    fld = FieldConfig(h_a=point["h_a_per_Jz"], delta_f=point["delta_f"],
                      eta=point["eta"])
    init = InitConfig(tilt=point["theta_rad"])
    n = int(point["cycles"])
    states = oracles.dense_evolve(cfg, fld, n, init)
    imb = np.diag(oracles.dense_operators(cfg)["imbalance_num"]).real
    return {
        "imbalance": float(imb @ np.abs(states[-1]) ** 2
                           / (imb @ np.abs(states[0]) ** 2)),
        "qfi": float(oracles.dense_qfi_fd(cfg, fld, n, init)),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
