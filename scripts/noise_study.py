"""Dephasing study: how local sigma-z noise degrades the Fisher information.

Evolves the density matrix and its exact h_a-derivative for a few system
sizes and noise strengths, point-averages the mixed-state QFI over windows of
dn cycles, and fits the growth exponent alpha of the averaged series.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dtc_sense import FieldConfig, ProbeConfig, noisy_fisher, power_fit

H_A = 1e-5
GAMMAS = [1e-4, 1e-3]
SIZES = [3, 4]
CYCLES, DN, K = 50, 5, 10

for gamma in GAMMAS:
    for L in SIZES:
        out = noisy_fisher(ProbeConfig(length=L), FieldConfig(h_a=H_A),
                           gamma=gamma, cycles=CYCLES, dn=DN, K=K)
        pa = out["point_averaged"]
        fit = power_fit(pa["n_mid"], pa["qfi"])
        tr = out["trace"]
        print(f"gamma={gamma:g}  L={L}:  alpha = {fit.exponent:.3f}  "
              f"(r^2 = {fit.r_squared:.4f}),  QFI({CYCLES}) = "
              f"{tr.qfi[CYCLES]:.2f},  I({CYCLES}) = {tr.imbalance[CYCLES]:+.4f}")
