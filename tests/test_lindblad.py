import numpy as np
import pytest
import scipy.linalg

import oracles
from dtc_sense import model, sweep
from dtc_sense.errors import ConfigError, ResourceLimitError
from dtc_sense.floquet import FloquetEngine, initial_state_with_tangent
from dtc_sense.lindblad import (
    LindbladEngine,
    _expm,
    hamming_distance_matrix,
    initial_mixed_state,
    noisy_fisher,
)
from dtc_sense.model import (
    EngineState,
    FieldConfig,
    InitConfig,
    ProbeConfig,
    build_initial_state,
    collective_index_a,
    engine_probe,
    observable_diagonal,
)
from dtc_sense.metrology import (
    _readout,
    point_average,
    qfi_mixed,
    stroboscopic_trace,
)


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return A + A.conj().T


def _mixed(rho, drho):
    """The B = 1 EngineState stack of rho and d rho."""
    return EngineState(np.stack((rho, drho))[None])


def _trajectory(cfg, fld, gamma, cycles):
    """rho after each of cycles 1..cycles, from the initial state."""
    engine = LindbladEngine(cfg, fld, gamma)
    state = initial_mixed_state(cfg, gamma=gamma)
    out = []
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
        out.append(state.x[0, 0])
    return out


# -------------------------------------------------------------- ingredients

def test_hamming_matrix_small_case():
    D = hamming_distance_matrix(4)
    assert D[0, 0] == 0 and D[0, 3] == 2 and D[1, 2] == 2 and D[0, 1] == 1
    assert np.all(D == D.T)


def test_stacked_expm_matches_scipy_per_block():
    # one stack of blocks whose 1-norms span 1e-5 .. 8: each block is
    # scaled and squared back by its own norm, so the small blocks keep the
    # accuracy they have on their own
    rng = np.random.default_rng(11)
    norms = [1e-5, 1e-3, 0.1, 0.5, 2.0, 8.0]
    stack = []
    for norm in norms:
        X = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        stack.append(X * norm / np.abs(X).sum(axis=0).max())
    got = _expm(np.array(stack).reshape(2, 3, 16, 16)).reshape(-1, 16, 16)
    for X, E in zip(stack, got):
        ref = scipy.linalg.expm(X)
        assert np.max(np.abs(E - ref)) < 1e-13 * np.max(np.abs(ref))


# ------------------------------------------------------------ exact channel

@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.05])
def test_cycle_matches_dense_oracle(gamma, length):
    # off resonance with crosstalk, so both halves carry a field phase
    cfg = ProbeConfig(length=length, epsilon=0.1)
    fld = FieldConfig(h_a=0.3, delta_f=0.02, eta=0.1)
    engine = LindbladEngine(cfg, fld, gamma)
    ref = _random_density(cfg.dim, seed=7)
    state = _mixed(ref, np.zeros_like(ref))
    for n in (1, 2, 3):
        engine.apply_cycle(state, n)
        ref = oracles.dense_lindblad_cycle(ref, cfg, fld, gamma, n)
        assert np.max(np.abs(state.x[0, 0] - ref)) < 1e-12


@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.05])
def test_tangent_matches_expm_frechet(gamma, length):
    cfg = ProbeConfig(length=length, epsilon=0.1)
    fld = FieldConfig(h_a=0.3, delta_f=0.02, eta=0.1)
    engine = LindbladEngine(cfg, fld, gamma)
    rho0 = _random_density(cfg.dim, seed=5)
    drho0 = _random_hermitian(cfg.dim, seed=6)
    state = _mixed(rho0.copy(), drho0.copy())
    ref, dref = rho0, drho0
    for n in (1, 2, 3):
        engine.apply_cycle(state, n)
        ref, dref = oracles.dense_lindblad_cycle(ref, cfg, fld, gamma, n, dref)
        assert np.max(np.abs(state.tangent[0] - dref)) < 1e-10 * np.max(np.abs(dref))
        assert np.max(np.abs(state.x[0, 0] - ref)) < 1e-12


def test_pure_dephasing_closes_exponentially():
    # |up..up><down..down| is untouched by the exchange and, at h = 0, has no
    # phase difference under the Ising half, so each cycle only damps it by
    # exp(-2 gamma * hamming * T) with hamming = 2L
    cfg = ProbeConfig(length=2)
    gamma = 0.3
    engine = LindbladEngine(cfg, FieldConfig(), gamma)
    rho = _random_density(cfg.dim, seed=3)
    state = _mixed(rho.copy(), np.zeros_like(rho))
    for n in range(1, 5):
        engine.apply_cycle(state, n)
        decay = np.exp(-2 * gamma * 2 * cfg.length * cfg.period * n)
        assert state.x[0, 0, 0, -1] == pytest.approx(decay * rho[0, -1],
                                                    rel=1e-12)


def test_zero_noise_matches_unitary_engine():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    traj = _trajectory(cfg, fld, 0.0, 6)
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg)
    for n in range(1, 7):
        engine.apply_cycle(state, n)
    pure_rho = np.outer(state.x[:, 0], state.x[:, 0].conj())
    assert np.max(np.abs(traj[-1] - pure_rho)) < 1e-13


def test_trajectory_is_trace_preserving_and_positive():
    cfg = ProbeConfig(length=3, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    engine = LindbladEngine(cfg, fld, 5e-3)
    state = initial_mixed_state(cfg, gamma=5e-3)
    for n in range(1, 11):
        engine.apply_cycle(state, n)
        assert np.trace(state.x[0, 0]).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(state.x[0, 0])[0] > -1e-12
        assert np.allclose(state.x[0, 0], state.x[0, 0].conj().T, atol=1e-13)


def test_dephasing_shrinks_purity():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    traj = _trajectory(cfg, fld, 0.01, 8)
    purities = [np.trace(rho @ rho).real for rho in traj]
    assert purities[-1] < 1.0 - 1e-4
    assert all(p2 <= p1 + 1e-9 for p1, p2 in zip(purities, purities[1:]))


def test_gate_cache_holds_the_two_latest_theta_units():
    # off resonance every cycle has a new Theta unit, and the cache still
    # holds at most two; at resonance the two cached units serve every
    # cycle, with the results of an engine built afresh for each cycle
    cfg, gamma = ProbeConfig(length=3), 1e-3
    init = InitConfig(tilt=0.1)
    engine = LindbladEngine(cfg, FieldConfig(h_a=0.1, delta_f=0.01), gamma)
    state = initial_mixed_state(cfg, init)
    for n in range(1, 201):
        engine.apply_cycle(state, n)
    assert len(engine._gate_cache) <= 2
    resonant = FieldConfig(h_a=0.1)
    engine = LindbladEngine(cfg, resonant, gamma)
    cached, fresh = (initial_mixed_state(cfg, init) for _ in range(2))
    for n in range(1, 7):
        engine.apply_cycle(cached, n)
        LindbladEngine(cfg, resonant, gamma).apply_cycle(fresh, n)
        assert np.array_equal(cached.x[:, 0], fresh.x[:, 0])
        assert np.array_equal(cached.tangent, fresh.tangent)
    assert len(engine._gate_cache) == 2
    assert engine.pair_gates(5) is engine.pair_gates(1)


def test_resonant_cycles_after_the_second_compute_no_exponential(monkeypatch):
    # by cycle 2 a resonant drive has cached the blocks of both its
    # (Theta_1, Theta_2) units, and the diagonal half is the cached chain
    # factor times the pair factors folded into those blocks
    cfg, fld = ProbeConfig(length=2), FieldConfig(h_a=0.1, eta=0.1)
    pure = FloquetEngine(cfg, fld)
    mixed = LindbladEngine(cfg, fld, 1e-3)
    psi = initial_state_with_tangent(cfg)
    rho = initial_mixed_state(cfg, InitConfig(tilt=0.1))
    for n in (1, 2):
        pure.apply_cycle(psi, n)
        mixed.apply_cycle(rho, n)
    calls, exp = [], np.exp

    def counted_exp(*args, **kwargs):
        calls.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted_exp)
    for n in range(3, 9):
        pure.apply_cycle(psi, n)
        mixed.apply_cycle(rho, n)
    assert calls == []
    # the counter sees the exponentials of a fresh engine's first cycle
    FloquetEngine(cfg, fld).apply_cycle(psi, 9)
    assert calls


@pytest.mark.parametrize("mixed", [False, True])
def test_engines_refuse_a_stack_of_another_shape(mixed):
    # the stack must hold exactly the engine's B fields at its d^L; a B = 1
    # stack would otherwise broadcast over a B = 2 engine
    cfg = ProbeConfig(length=2)
    fields = [FieldConfig(h_a=1e-3), FieldConfig(h_a=2e-3)]
    engine, initial = ((LindbladEngine(cfg, fields, 1e-3), initial_mixed_state)
                       if mixed else (FloquetEngine(cfg, fields),
                                      initial_state_with_tangent))
    for L, B in ((2, 1), (2, 3), (1, 2), (3, 2)):
        state = initial(ProbeConfig(length=L))
        state.x = np.repeat(state.x, B, axis=0)
        with pytest.raises(ValueError, match="does not match"):
            engine.apply_cycle(state, 1)
    state = initial(cfg)
    state.x = np.repeat(state.x, 2, axis=0)
    assert engine.apply_cycle(state, 1).x.shape == (2, 2) + engine.chain.shape


def test_initial_mixed_state_is_projector():
    cfg = ProbeConfig(length=2)
    st = initial_mixed_state(cfg, InitConfig(tilt=0.1), gamma=0.0)
    assert np.array_equal(st.tangent[0], np.zeros_like(st.x[0, 0]))
    assert np.trace(st.x[0, 0]).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(st.x[0, 0] @ st.x[0, 0]).real == pytest.approx(1.0, abs=1e-12)
    psi = build_initial_state(cfg, InitConfig(tilt=0.1))
    assert np.allclose(st.x[0, 0], np.outer(psi, psi.conj()), atol=1e-13)


# ------------------------------------------------------------ noisy_fisher

def test_engines_gate_the_state_they_are_built_for():
    # each engine refuses a state beyond model.batch_size's gate before it
    # builds a d^L array: 2^17 amplitudes, and 2^11 density-matrix rows
    with pytest.raises(ResourceLimitError, match="pure-state"):
        FloquetEngine(ProbeConfig(length=17, pair_dim=2), FieldConfig())
    with pytest.raises(ResourceLimitError, match="density-matrix"):
        LindbladEngine(ProbeConfig(length=11, pair_dim=2), FieldConfig(), 1e-3)
    # the largest states each gate admits still build
    FloquetEngine(ProbeConfig(length=16, pair_dim=2), FieldConfig())
    LindbladEngine(ProbeConfig(length=5), FieldConfig(), 1e-3)


def test_noisy_fisher_gate_and_window_validation():
    # the gate counts density-matrix rows: 4^6 at tilt > 0, 2^11 at tilt 0
    with pytest.raises(ResourceLimitError):
        noisy_fisher(ProbeConfig(length=6), [FieldConfig(h_a=1e-3)], 1e-3,
                     cycles=4, init=InitConfig(tilt=0.1))
    with pytest.raises(ResourceLimitError):
        noisy_fisher(ProbeConfig(length=11), [FieldConfig(h_a=1e-3)], 1e-3,
                     cycles=4)
    with pytest.raises(ConfigError, match="^cycles must be >= 0, got -1$"):
        noisy_fisher(ProbeConfig(length=2), [FieldConfig(h_a=1e-3)], 1e-3,
                     cycles=-1)
    trace = noisy_fisher(ProbeConfig(length=2), [FieldConfig(h_a=1e-3)], 1e-3,
                         cycles=4)[0]
    with pytest.raises(ValueError):
        point_average(trace, dn=3, K=2)


@pytest.mark.parametrize("gamma", [-1e-3, np.nan, np.inf])
def test_dephasing_rate_must_be_finite_and_non_negative(gamma):
    cfg, fields = ProbeConfig(length=3), [FieldConfig(h_a=1e-5)]
    match = f"^gamma must be finite and >= 0, got {gamma}$"
    with pytest.raises(ConfigError, match=match):
        LindbladEngine(cfg, fields, gamma)
    with pytest.raises(ConfigError, match=match):
        noisy_fisher(cfg, fields, gamma, 50)


@pytest.mark.parametrize("tilt", [0.0, 0.1])
def test_noisy_fisher_zero_noise_tracks_pure_qfi(tilt):
    # tilt 0 runs both builders at d = 2, tilt 0.1 at d = 4
    cfg = ProbeConfig(length=2, epsilon=0.1)
    init = InitConfig(tilt=tilt)
    # h_a = 0 included: the exact derivative needs no one-sided stencil
    # there; the fields of each delta_f run as one batch
    for df in (0.0, 0.02):
        fields = [FieldConfig(h_a=1e-3, delta_f=df),
                  FieldConfig(h_a=0.0, delta_f=df)]
        batch = noisy_fisher(cfg, fields, gamma=0.0, cycles=6, init=init)
        for out, fld in zip(batch, fields):
            _assert_tracks_pure(out, stroboscopic_trace(cfg, fld, init,
                                                        cycles=6))


def _assert_tracks_pure(out, pure):
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
    quiet = noisy_fisher(cfg, [fld], gamma=0.0, cycles=6)[0]
    noisy = noisy_fisher(cfg, [fld], gamma=0.05, cycles=6)[0]
    assert noisy.qfi[6] < quiet.qfi[6]
    pa = point_average(noisy, dn=3, K=2)
    assert np.allclose(pa["n_mid"], [1.5, 4.5])
    assert pa["qfi"].shape == (2,)


def test_noisy_fisher_fisher_hierarchy_holds():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    tr = noisy_fisher(cfg, [FieldConfig(h_a=1e-3)], gamma=1e-3, cycles=5)[0]
    for n in range(1, 6):
        assert tr.qfi[n] >= tr.cfi_computational[n] - 1e-6
        assert tr.cfi_computational[n] >= tr.cfi_collective[n] - 1e-8


def _columns(trace):
    return np.column_stack([trace.imbalance, trace.qfi,
                            trace.cfi_computational, trace.cfi_collective])


@pytest.mark.parametrize("tilt", [0.0, 0.1])
def test_noisy_fisher_batch_matches_single_runs(tilt):
    # fields from 1e-5 to 1e6 in one batch: each trace reproduces its own
    # one-field run to 1e-13 of each column's largest value, which needs
    # every exchange block exponentiated at its own scaling
    cfg, init = ProbeConfig(length=2, epsilon=0.1), InitConfig(tilt=tilt)
    fields = [FieldConfig(h_a=h, delta_f=0.01, eta=0.1)
              for h in (1e-5, 1e-3, 0.3, 1e4, 1e6)]
    batch = noisy_fisher(cfg, fields, 1e-3, 20, init)
    assert len(batch) == len(fields)
    for trace, fld in zip(batch, fields):
        ref = _columns(noisy_fisher(cfg, [fld], 1e-3, 20, init)[0])
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(_columns(trace) - ref) <= 1e-13 * scale), fld


def test_noisy_fisher_batch_split_to_the_state_size_gate_matches(monkeypatch):
    # a dephased sweep cuts its field group by model.batch_size: with a
    # budget of one 12-row density matrix (2 sector fields at L = 3) the
    # five fields reach noisy_fisher as pieces of 2, 2 and 1, and their rows
    # match the unsplit run's
    batches = []

    def recording(cfg, fields, *args):
        batches.append(len(fields))
        return noisy_fisher(cfg, fields, *args)

    monkeypatch.setattr(sweep, "noisy_fisher", recording)
    cfg = sweep.apply_dict(sweep.base_config(), {
        "L": 3, "cycles": 6, "gamma_per_Jz": 1e-3,
        "h_a_per_Jz": [1e-4, 1e-3, 1e-2, 0.1, 0.5]})
    names, whole = sweep.run_sweep(cfg)
    assert batches == [5]
    batches.clear()
    monkeypatch.setattr(model, "MIXED_STATE_MAX_DIM", 12)
    split_names, pieces = sweep.run_sweep(cfg)
    assert split_names == names and batches == [2, 2, 1]
    ref, got = np.array(whole), np.array(pieces)
    assert np.array_equal(ref[:, :2], got[:, :2])  # h_a_per_Jz and n
    scale = np.abs(ref[:, 2:]).max(axis=0)
    assert np.all(np.abs(got[:, 2:] - ref[:, 2:]) <= 1e-13 * scale)


@pytest.mark.parametrize("length", [2, 3])
def test_noisy_fisher_sector_equals_full_engine(length):
    # noisy_fisher runs tilt 0 at d = 2 (2^L x 2^L rho, tau^z dephasing at
    # rate 2 gamma); the d = 4 engine on the full 4^L x 4^L rho must agree
    cfg = ProbeConfig(length=length, epsilon=0.1)
    fld = FieldConfig(h_a=1e-2, delta_f=0.02, eta=0.1)
    gamma, cycles = 1e-2, 20
    trace = noisy_fisher(cfg, [fld], gamma, cycles)[0]
    assert engine_probe(cfg, None).pair_dim == 2
    got = np.column_stack([trace.imbalance, trace.qfi,
                           trace.cfi_computational, trace.cfi_collective])
    engine = LindbladEngine(cfg, fld, gamma)
    state = initial_mixed_state(cfg, gamma=gamma)
    imb_diag = observable_diagonal(cfg)
    i0 = imb_diag @ np.diag(state.x[0, 0]).real
    ref = np.zeros((cycles + 1, 4))
    ref[0, 0] = 1.0
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
        imb, cfi_c, cfi_m = _readout(np.diag(state.x[0, 0]).real,
                                     np.diag(state.tangent[0]).real, imb_diag,
                                     i0, collective_index_a(cfg))
        ref[n] = imb, qfi_mixed(state.x)[0], cfi_c, cfi_m
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
