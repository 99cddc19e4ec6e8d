import numpy as np
import pytest

import oracles
from dtc_sense.errors import NumericalError
from dtc_sense.floquet import FloquetEngine
from dtc_sense.lindblad import (
    LindbladEngine,
    MixedState,
    evolve_lindblad,
    hamming_distance_matrix,
    initial_mixed_state,
    noisy_fisher,
)
from dtc_sense.model import FieldConfig, InitConfig, ProbeConfig, build_initial_state
from dtc_sense.metrology import stroboscopic_trace


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return A + A.conj().T


# -------------------------------------------------------------- ingredients

def test_hamming_matrix_small_case():
    cfg = ProbeConfig(length=1)
    D = hamming_distance_matrix(cfg)
    assert D[0, 0] == 0 and D[0, 3] == 2 and D[1, 2] == 2 and D[0, 1] == 1
    assert np.all(D == D.T)


# ------------------------------------------------------------ exact channel

@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.05])
def test_cycle_matches_dense_oracle(gamma, length):
    # off resonance with crosstalk, so both halves carry a field phase
    cfg = ProbeConfig(length=length, epsilon=0.1)
    fld = FieldConfig(h_a=0.3, delta_f=0.02, eta=0.1)
    engine = LindbladEngine(cfg, fld, gamma)
    state = MixedState(_random_density(cfg.dim, seed=7))
    ref = state.rho
    for n in (1, 2, 3):
        engine.apply_cycle(state, n)
        ref = oracles.dense_lindblad_cycle(ref, cfg, fld, gamma, n)
        assert np.max(np.abs(state.rho - ref)) < 1e-12
    assert state.cycle == 3 and state.tangent is None


@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.05])
def test_tangent_matches_expm_frechet(gamma, length):
    cfg = ProbeConfig(length=length, epsilon=0.1)
    fld = FieldConfig(h_a=0.3, delta_f=0.02, eta=0.1)
    engine = LindbladEngine(cfg, fld, gamma)
    rho0 = _random_density(cfg.dim, seed=5)
    drho0 = _random_hermitian(cfg.dim, seed=6)
    state = MixedState(rho0.copy(), tangent=drho0.copy())
    ref, dref = rho0, drho0
    for n in (1, 2, 3):
        engine.apply_cycle(state, n)
        ref, dref = oracles.dense_lindblad_cycle(ref, cfg, fld, gamma, n, dref)
        assert np.max(np.abs(state.tangent - dref)) < 1e-10 * np.max(np.abs(dref))
        assert np.max(np.abs(state.rho - ref)) < 1e-12


def test_pure_dephasing_closes_exponentially():
    # |up..up><down..down| is untouched by the exchange and, at h = 0, has no
    # phase difference under the Ising half, so each cycle only damps it by
    # exp(-2 gamma * hamming * T) with hamming = 2L
    cfg = ProbeConfig(length=2)
    gamma = 0.3
    engine = LindbladEngine(cfg, FieldConfig(), gamma)
    rho = _random_density(cfg.dim, seed=3)
    state = MixedState(rho.copy())
    for n in range(1, 5):
        engine.apply_cycle(state, n)
        decay = np.exp(-2 * gamma * 2 * cfg.length * cfg.period * n)
        assert state.rho[0, -1] == pytest.approx(decay * rho[0, -1],
                                                 rel=1e-12)


def test_zero_noise_matches_unitary_engine():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    rho0 = initial_mixed_state(cfg)
    traj = evolve_lindblad(rho0, 6, cfg, fld, gamma=0.0)
    engine = FloquetEngine(cfg, fld)
    state = build_initial_state(cfg)
    for n in range(1, 7):
        engine.apply_cycle(state, n)
    pure_rho = np.outer(state.amplitudes, state.amplitudes.conj())
    assert np.max(np.abs(traj[-1].rho - pure_rho)) < 1e-13


def test_trajectory_is_trace_preserving_and_positive():
    cfg = ProbeConfig(length=3, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    rho0 = initial_mixed_state(cfg, gamma=5e-3)
    traj = evolve_lindblad(rho0, 10, cfg, fld, 5e-3)
    for st in traj:
        assert st.trace() == pytest.approx(1.0, abs=1e-12)
        assert st.min_eigenvalue() > -1e-12
        assert np.allclose(st.rho, st.rho.conj().T, atol=1e-13)
    assert traj[-1].cycle == 10


def test_dephasing_shrinks_purity():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    rho0 = initial_mixed_state(cfg, gamma=0.01)
    traj = evolve_lindblad(rho0, 8, cfg, fld, 0.01)
    purities = [np.trace(st.rho @ st.rho).real for st in traj]
    assert purities[-1] < 1.0 - 1e-4
    assert all(p2 <= p1 + 1e-9 for p1, p2 in zip(purities, purities[1:]))


def test_initial_mixed_state_is_projector():
    cfg = ProbeConfig(length=2)
    st = initial_mixed_state(cfg, InitConfig(tilt=0.1), gamma=0.0)
    assert st.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.trace(st.rho @ st.rho).real == pytest.approx(1.0, abs=1e-12)
    psi = build_initial_state(cfg, InitConfig(tilt=0.1)).amplitudes
    assert np.allclose(st.rho, np.outer(psi, psi.conj()), atol=1e-13)


# ------------------------------------------------------------ noisy_fisher

def test_noisy_fisher_gate_and_window_validation():
    with pytest.raises(NumericalError):
        noisy_fisher(ProbeConfig(length=6), FieldConfig(h_a=1e-3), 1e-3,
                     cycles=4, dn=2, K=2)
    with pytest.raises(ValueError):
        noisy_fisher(ProbeConfig(length=2), FieldConfig(h_a=1e-3), 1e-3,
                     cycles=4, dn=3, K=2)


def test_noisy_fisher_zero_noise_tracks_pure_qfi():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    # h_a = 0 included: the exact derivative needs no one-sided stencil there
    for fld in (FieldConfig(h_a=1e-3), FieldConfig(h_a=0.0, delta_f=0.02)):
        out = noisy_fisher(cfg, fld, gamma=0.0, cycles=6, dn=3, K=2)["trace"]
        pure = stroboscopic_trace(cfg, fld, cycles=6)
        for n in range(1, 7):
            assert out.qfi[n] == pytest.approx(pure.qfi[n], rel=1e-9)
            assert out.cfi_computational[n] == pytest.approx(
                pure.cfi_computational[n], rel=1e-9)
            assert out.cfi_collective[n] == pytest.approx(
                pure.cfi_collective[n], rel=1e-9)
            assert out.imbalance[n] == pytest.approx(pure.imbalance[n],
                                                     abs=1e-12)


def test_noisy_fisher_dephasing_suppresses_qfi():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    quiet = noisy_fisher(cfg, fld, gamma=0.0, cycles=6, dn=3, K=2)
    noisy = noisy_fisher(cfg, fld, gamma=0.05, cycles=6, dn=3, K=2)
    assert noisy["trace"].qfi[6] < quiet["trace"].qfi[6]
    assert noisy["trace"].gamma == 0.05
    pa = noisy["point_averaged"]
    assert np.allclose(pa["n_mid"], [1.5, 4.5])
    assert pa["qfi"].shape == (2,)


def test_noisy_fisher_fisher_hierarchy_holds():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    out = noisy_fisher(cfg, FieldConfig(h_a=1e-3), gamma=1e-3,
                       cycles=5, dn=5, K=1)
    tr = out["trace"]
    for n in range(1, 6):
        assert tr.qfi[n] >= tr.cfi_computational[n] - 1e-6
        assert tr.cfi_computational[n] >= tr.cfi_collective[n] - 1e-8
