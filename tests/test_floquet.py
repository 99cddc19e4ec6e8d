import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm, expm_frechet

import oracles
from dtc_sense.errors import NumericalError
from dtc_sense.floquet import FloquetEngine, initial_state_with_tangent, theta_units
from dtc_sense.lindblad import noisy_fisher
from dtc_sense.metrology import (
    _readout,
    qfi_pure,
    stroboscopic_trace,
    stroboscopic_traces,
)
from dtc_sense.model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    build_initial_state,
    collective_index_a,
    engine_probe,
    observable_diagonal,
)
from dtc_sense.recipes import RECIPES, recipe_config
from dtc_sense.sweep import apply_dict, base_config


# --------------------------------------------------------------- theta_units

def test_theta_resonant_value_and_sign():
    assert theta_units(1, 0.0) == pytest.approx((1 / np.pi, 1 / np.pi))
    assert theta_units(1, 0.0)[0] == pytest.approx(0.318310, abs=1e-6)
    for unit in theta_units(2, 0.0):
        assert unit == pytest.approx(-0.318310, abs=1e-6)


def test_theta_offresonant_cycle_sum_identity():
    df = 0.02
    for n in (1, 2, 5, 40):
        expected = ((-1) ** (n + 1) / (np.pi * (1 + df))) \
            * (np.cos(n * np.pi * df) + np.cos((n - 1) * np.pi * df))
        assert sum(theta_units(n, df)) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 1000), half=st.sampled_from([1, 2]),
       df=st.floats(-0.5, 0.5))
def test_theta_matches_quadrature(n, half, df):
    T = ProbeConfig.period
    a = (n - 1) * T if half == 1 else (n - 0.5) * T
    b = (n - 0.5) * T if half == 1 else n * T
    ref, _ = quad(lambda t: np.sin(np.pi * (1 + df) * t / T), a, b, limit=200)
    assert theta_units(n, df)[half - 1] == pytest.approx(ref, abs=1e-10)


def test_theta_rejects_bad_indices():
    with pytest.raises(ValueError):
        theta_units(0, 0.0)


# ---------------------------------------------------------------- pair gates

def _first_field(gate):
    """(U, dU/dh_a) of the first field from one pair's (B, 2d, 2d) block
    gates [[U, 0], [dU, U]]."""
    d = gate.shape[-1] // 2
    return gate[0, :d, :d], gate[0, d:, :d]


def _apply_pair(U, psi, site, L):
    """Reference: a d x d gate on the (a_site, b_site) pair digit of one
    statevector, contracted on its own."""
    d = U.shape[0]
    return np.einsum("ij,ajb->aib", U,
                     psi.reshape(d ** (L - site), d, d ** (site - 1))).reshape(-1)


def test_perfect_quench_is_full_exchange():
    cfg = ProbeConfig(length=2, epsilon=0.0)
    for gate in FloquetEngine(cfg, FieldConfig()).pair_gates(1):
        U, _ = _first_field(gate)
        # |a down, b up> (local 1)  ->  -i |a up, b down> (local 2)
        assert U[2, 1] == pytest.approx(-1j, abs=1e-12)
        assert abs(U[1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_imperfect_quench_exchange_amplitude():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    gates = FloquetEngine(cfg, FieldConfig()).pair_gates(1)
    amp = abs(_first_field(gates[0])[0][2, 1])
    assert amp == pytest.approx(np.sin(np.pi * 0.9 / 2), rel=1e-12)
    assert amp == pytest.approx(0.98769, abs=5e-6)


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(0.0, 0.9), h=st.floats(0.0, 0.5),
       eta=st.floats(0.0, 0.5), n=st.integers(1, 6))
def test_pair_gates_unitary_and_block_diagonal(eps, h, eta, n):
    cfg = ProbeConfig(length=3, epsilon=eps)
    for gate in FloquetEngine(cfg, FieldConfig(h_a=h, eta=eta)).pair_gates(n):
        U, _ = _first_field(gate)
        assert np.allclose(U.conj().T @ U, np.eye(4), atol=1e-12)
        # pair magnetization blocks {0}, {1,2}, {3} stay uncoupled
        assert abs(U[0, 1]) + abs(U[0, 2]) + abs(U[0, 3]) < 1e-14
        assert abs(U[3, 1]) + abs(U[3, 2]) + abs(U[3, 0]) < 1e-14


# sigma^z of a_j and of b_j over each d's local states (model.PAIR_STATES)
_PAIR_SPINS = {4: (np.array([1, -1, 1, -1]), np.array([1, 1, -1, -1])),
               2: (np.array([1, -1]), np.array([-1, 1]))}


@pytest.mark.parametrize("eta", [0.0, 0.1])
@pytest.mark.parametrize("d", [2, 4])
def test_exchange_blocks_match_scipy_expm_and_frechet(d, eta):
    # each block [[U, 0], [dU/dh_a, U]] against scipy on an exponent built
    # by hand; at d = 4 and h_a = 0 local states 0 and 3 are degenerate
    cfg = ProbeConfig(length=3, epsilon=0.1, pair_dim=d)
    fields = [FieldConfig(h_a=h, eta=eta) for h in (0.0, 1e-5, 1e-2, 1.0)]
    unit = theta_units(1, 0.0)[1]
    blocks = FloquetEngine(cfg, fields)._exchange_blocks(unit)
    sa, sb = _PAIR_SPINS[d]
    # the exchange flips both spins of a pair whose spins are opposite
    hop = ((sa[:, None] == -sa) & (sb[:, None] == -sb) & (sa != sb)) * 1.0
    for site, pair in zip(range(1, cfg.length + 1), blocks):
        dM = np.diag(site * (sa + eta * sb))  # dM / dTheta_2
        for fld, block in zip(fields, pair):
            M = fld.h_a * unit * dM + cfg.t2 * cfg.jab * hop
            refs = (expm(-1j * M), expm_frechet(-1j * M, -1j * unit * dM,
                                                compute_expm=False))
            for got, ref in zip((block[:d, :d], block[d:, :d]), refs):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4]), L=st.integers(1, 4),
       eps=st.floats(0.0, 0.99), eta=st.floats(0.0, 0.9),
       log_h=st.none() | st.floats(-8.0, 8.0),
       df=st.just(0.0) | st.floats(-0.3, 0.3), n=st.integers(1, 6))
def test_pair_gates_match_dense_block_exponentials(d, L, eps, eta, log_h, df,
                                                   n):
    # the closed-form folded gates [[U D, 0], [d(U D)/dh_a, U D]] against
    # scipy expm of each half's block generator, over both signs of the
    # Theta units (odd and even n).  A phase Theta w is itself rounded to
    # eps |Theta w|, which no evaluation of U undoes, so the tolerance is
    # 1e-12 of the block's largest entry times max(1, |Theta w|)
    h_a = 0.0 if log_h is None else 10.0 ** log_h
    cfg = ProbeConfig(length=L, epsilon=eps, pair_dim=d)
    fld = FieldConfig(h_a=h_a, delta_f=df, eta=eta)
    gates = FloquetEngine(cfg, fld).pair_gates(n)
    phase = h_a * max(map(abs, theta_units(n, df))) * L * (1 + eta)
    for site, gate in zip(range(1, L + 1), gates):
        ref = oracles.dense_pair_gate(cfg, fld, site, n)
        assert np.max(np.abs(gate[0] - ref)) \
            <= 1e-12 * max(1.0, phase) * np.max(np.abs(ref))


@pytest.mark.parametrize("tilt", [0.0, 0.1])
def test_pure_traces_call_no_linear_algebra(monkeypatch, tilt):
    # the unitary engine's gates are closed-form: a d = 2 (tilt 0) and a
    # d = 4 trace run with every numpy.linalg function refusing to run
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on the pure-state path")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, refuse)
    cfg, init = ProbeConfig(length=3), InitConfig(tilt=tilt)
    assert engine_probe(cfg, init).pair_dim == (2 if tilt == 0.0 else 4)
    fields = [FieldConfig(h_a=h, delta_f=0.01) for h in (0.0, 1e-3)]
    for trace in stroboscopic_traces(cfg, fields, init, cycles=4):
        assert np.all(trace.qfi[1:] > 0)
    with pytest.raises(AssertionError, match="numpy.linalg"):
        np.linalg.eigh(np.eye(2))


def test_diagonal_half_preserves_norm():
    # the diagonal half is the chain factor times, folded into each pair's
    # gate U D, the pair factor D = exp(-i Theta_1 j (s^az_j + eta s^bz_j)):
    # phases only
    cfg = ProbeConfig(length=3)
    fld = FieldConfig(h_a=0.2, eta=0.1)
    engine = FloquetEngine(cfg, fld)
    assert np.allclose(np.abs(engine.chain), 1.0, atol=1e-12)
    unit1, unit2 = theta_units(1, 0.0)
    exchange = engine._exchange_blocks(unit2)
    theta1 = fld.h_a * unit1
    sa, sb = np.array([1, -1, 1, -1]), np.array([1, 1, -1, -1])
    for site, g, u in zip(range(1, 4), engine.pair_gates(1), exchange):
        D = _first_field(u)[0].conj().T @ _first_field(g)[0]
        assert np.allclose(D, np.diag(np.exp(-1j * theta1 * site
                                             * (sa + 0.1 * sb))), atol=1e-12)


# ------------------------------------------------------------- cycle algebra

def test_ideal_cycle_inverts_imbalance():
    cfg = ProbeConfig(length=3, epsilon=0.0)
    engine = FloquetEngine(cfg, FieldConfig())
    state = initial_state_with_tangent(cfg)
    i0 = observable_diagonal(cfg) @ np.abs(state.x[0, 0]) ** 2
    for n, expected in ((1, -1.0), (2, 1.0)):
        engine.apply_cycle(state, n)
        imb = observable_diagonal(cfg) @ np.abs(state.x[0, 0]) ** 2
        assert imb / i0 == pytest.approx(expected, abs=1e-12)
    assert np.linalg.norm(state.x[:, 0]) == pytest.approx(1.0, abs=1e-10)


def test_apply_cycle_rejects_wrong_dimension():
    state = initial_state_with_tangent(ProbeConfig(length=2))
    with pytest.raises(ValueError):
        FloquetEngine(ProbeConfig(length=3), FieldConfig()).apply_cycle(state, 1)


def test_gate_order_is_irrelevant():
    cfg = ProbeConfig(length=4, epsilon=0.07)
    fld = FieldConfig(h_a=0.05, eta=0.1)
    engine = FloquetEngine(cfg, fld)
    gates = engine.pair_gates(1)  # the folded gates U D of the pairs
    psi0 = build_initial_state(cfg, InitConfig(tilt=0.1))
    psi0 = engine.chain * psi0
    sites = range(1, cfg.length + 1)
    out_fwd = psi0.copy()
    for site, g in zip(sites, gates):
        out_fwd = _apply_pair(_first_field(g)[0], out_fwd, site, cfg.length)
    out_rev = psi0.copy()
    for site, g in reversed(list(zip(sites, gates))):
        out_rev = _apply_pair(_first_field(g)[0], out_rev, site, cfg.length)
    assert np.allclose(out_fwd, out_rev, atol=1e-12)
    # the fused pass (pair L first) gives the same state
    state = initial_state_with_tangent(cfg, InitConfig(tilt=0.1))
    assert np.allclose(engine.apply_cycle(state, 1).x[:, 0], out_fwd,
                       atol=1e-12)


def test_zero_crosstalk_matches_dedicated_path():
    cfg = ProbeConfig(length=3, epsilon=0.1)
    e1 = FloquetEngine(cfg, FieldConfig(h_a=0.02, eta=0.0))
    e2 = FloquetEngine(cfg, FieldConfig(h_a=0.02))
    s1 = initial_state_with_tangent(cfg)
    s2 = initial_state_with_tangent(cfg)
    for n in range(1, 6):
        e1.apply_cycle(s1, n)
        e2.apply_cycle(s2, n)
    assert np.allclose(s1.x[:, 0], s2.x[:, 0], atol=1e-12)


# ------------------------------------------------------ dense-oracle checks

@pytest.mark.parametrize("L,eps,h,df,eta,tilt", [
    (2, 0.1, 0.0, 0.0, 0.0, 0.0),
    (2, 0.0, 0.05, 0.0, 0.1, 0.0),
    (3, 0.07, 0.02, 0.01, 0.2, 0.0),
    (3, 0.1, 0.3, -0.02, 0.0, 0.2),
])
def test_engine_matches_dense_expm(L, eps, h, df, eta, tilt):
    cfg = ProbeConfig(length=L, epsilon=eps)
    fld = FieldConfig(h_a=h, delta_f=df, eta=eta)
    init = InitConfig(tilt=tilt)
    dense = oracles.dense_evolve(cfg, fld, cycles=6, init=init)
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg, init)
    for n in range(1, 7):
        engine.apply_cycle(state, n)
        assert np.allclose(state.x[:, 0], dense[n], atol=1e-12), \
            f"divergence from dense oracle at cycle {n}"


def test_single_pair_qfi_matches_brute_force():
    # L=1: no chain bonds, one pair gate; closed comparison against
    # explicitly assembled 4x4 propagators
    cfg = ProbeConfig(length=1, epsilon=0.0)
    fld = FieldConfig(h_a=1e-4)
    state = initial_state_with_tangent(cfg)
    FloquetEngine(cfg, fld).apply_cycle(state, 1)
    value = qfi_pure(state.x)
    ref = oracles.dense_qfi_fd(cfg, fld, cycles=1)
    assert value == pytest.approx(ref, rel=1e-7)
    # analytic small-field limit for one cycle of the ideal single pair
    assert value == pytest.approx(16 / np.pi ** 4, rel=1e-4)


@pytest.mark.parametrize("L,eps,h,df,eta,cycles", [
    (1, 0.0, 1e-5, 0.0, 0.0, 50),
    (2, 0.1, 1e-3, 0.0, 0.0, 30),
    (3, 0.1, 1e-2, 0.01, 0.1, 20),
    (3, 0.05, 0.2, 0.0, 0.0, 50),
])
def test_tangent_matches_finite_difference(L, eps, h, df, eta, cycles):
    cfg = ProbeConfig(length=L, epsilon=eps)
    fld = FieldConfig(h_a=h, delta_f=df, eta=eta)
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg)
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
    ref = oracles.dense_qfi_fd(cfg, fld, cycles=cycles)
    assert qfi_pure(state.x) == pytest.approx(ref, rel=1e-6)


def test_zero_field_tangent_matches_finite_difference():
    # h=0 is a regular point: theta vanishes but dtheta/dh does not, so the
    # tangent (and the QFI) stay finite and must agree with the FD oracle
    cfg = ProbeConfig(length=2, epsilon=0.1)
    fld = FieldConfig(h_a=0.0)
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg)
    for n in range(1, 21):
        engine.apply_cycle(state, n)
    assert np.linalg.norm(state.x[:, 0]) == pytest.approx(1.0, abs=1e-10)
    ref = oracles.dense_qfi_fd(cfg, fld, cycles=20)
    assert qfi_pure(state.x) == pytest.approx(ref, rel=1e-6)


# --------------------------------------------------------------- invariants

def test_norm_and_magnetization_over_long_run():
    cfg = ProbeConfig(length=3, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3, delta_f=0.005, eta=0.05)
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg, InitConfig(tilt=0.05))
    mag = oracles.total_magnetization_diagonal(cfg)
    m0 = mag @ np.abs(state.x[0, 0]) ** 2
    for n in range(1, 1001):
        engine.apply_cycle(state, n)
    assert np.linalg.norm(state.x[:, 0]) == pytest.approx(1.0, abs=1e-10)
    m1 = mag @ np.abs(state.x[0, 0]) ** 2
    assert m1 == pytest.approx(m0, abs=1e-10)


def test_tangent_orthogonality_residual():
    # Re<psi|dpsi> stays at the derivative-of-norm level
    cfg = ProbeConfig(length=3, epsilon=0.1)
    engine = FloquetEngine(cfg, FieldConfig(h_a=1e-3))
    state = initial_state_with_tangent(cfg)
    for n in range(1, 51):
        engine.apply_cycle(state, n)
    assert abs(np.vdot(state.x[:, 0], state.tangent).real) < 1e-8


def test_imbalance_refuses_zero_reference():
    # at the largest tilt the initial imbalance vanishes, so neither trace
    # builder can normalize; both refuse before the first cycle
    cfg = ProbeConfig(length=2)
    init = InitConfig(tilt=np.pi / 4)
    with pytest.raises(NumericalError):
        stroboscopic_trace(cfg, FieldConfig(h_a=1e-3), init, cycles=1)
    with pytest.raises(NumericalError):
        noisy_fisher(cfg, [FieldConfig(h_a=1e-3)], 1e-3, cycles=1, init=init)


def test_imbalance_stays_in_range():
    cfg = ProbeConfig(length=4, epsilon=0.15)
    fld = FieldConfig(h_a=0.05)
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg)
    d = observable_diagonal(cfg)
    i0 = d @ np.abs(state.x[0, 0]) ** 2
    for n in range(1, 101):
        engine.apply_cycle(state, n)
        val = (d @ np.abs(state.x[0, 0]) ** 2) / i0
        assert -1.0 - 1e-10 <= val <= 1.0 + 1e-10


def test_attach_tangent_initializes_zero():
    state = initial_state_with_tangent(ProbeConfig(length=2))
    assert state.x.shape == (1, 2, 16)
    assert np.all(state.tangent == 0)


# ------------------------------------------------------- pair-qubit sector

def test_sector_pair_gate_is_the_kept_block():
    # at d = 2 each gate is the 4x4 gate's block on the kept local states
    # (tau up = full local 2, tau down = full local 1)
    fld = FieldConfig(h_a=0.07, delta_f=0.01, eta=0.15)
    full = FloquetEngine(ProbeConfig(length=3, epsilon=0.1), fld)
    sector = FloquetEngine(ProbeConfig(length=3, epsilon=0.1, pair_dim=2), fld)
    keep = np.ix_([2, 1], [2, 1])
    for n in (1, 2, 5):
        for g4, g2 in zip(full.pair_gates(n), sector.pair_gates(n)):
            (u4, du4), (u2, du2) = _first_field(g4), _first_field(g2)
            assert u2.shape == (2, 2)
            assert np.allclose(u2, u4[keep], atol=1e-14)
            assert np.allclose(du2, du4[keep], atol=1e-14)


def _tilt_zero_recipe_points():
    """(epsilon, h_a, delta_f, eta) -> cycles of every tilt-0 point of the
    pure-state recipes."""
    points = {}
    for name, recipe in RECIPES.items():
        if recipe["command"] not in ("simulate", "sweep"):
            continue
        cfg = apply_dict(base_config(), recipe_config(name))
        for values in itertools.product(*cfg.axes.values()):
            p = {**cfg.fixed, **dict(zip(cfg.axes, values))}
            if p["theta_rad"] == 0.0:
                key = (p["epsilon"], p["h_a_per_Jz"], p["delta_f"], p["eta"])
                points[key] = max(points.get(key, 0), p["cycles"])
    return points


def _full_space_trace(cfg, fld, cycles):
    """Imbalance, QFI, CFI_comp and CFI_coll per cycle from the d = 4 engine."""
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg)
    coll, imb_diag = collective_index_a(cfg), observable_diagonal(cfg)
    i0 = imb_diag @ np.abs(state.x[0, 0]) ** 2
    out = np.zeros((cycles + 1, 4))
    out[0, 0] = 1.0
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
        p = np.abs(state.x[0, 0]) ** 2
        dp = 2.0 * np.real(np.conj(state.x[0, 0]) * state.tangent[0])
        imb, cfi_c, cfi_m = _readout(p, dp, imb_diag, i0, coll)
        out[n] = imb, qfi_pure(state.x)[0], cfi_c, cfi_m
    return out


def test_sector_trace_equals_full_engine_on_every_tilt_zero_recipe():
    # the trace builder runs tilt 0 at d = 2; each column must match the
    # full engine to 1e-12 relative to the trace's largest value in it
    # (single entries near zero, such as CFI(1) ~ 1e-10, carry only
    # rounding-level absolute differences)
    points = _tilt_zero_recipe_points()
    assert len(points) > 50
    for (eps, h, df, eta), cycles in points.items():
        fld = FieldConfig(h_a=h, delta_f=df, eta=eta)
        for L in range(1, 7):
            cfg = ProbeConfig(length=L, epsilon=eps)
            trace = stroboscopic_trace(cfg, fld, cycles=cycles)
            assert engine_probe(cfg, None).pair_dim == 2
            got = np.column_stack([trace.imbalance, trace.qfi,
                                   trace.cfi_computational,
                                   trace.cfi_collective])
            ref = _full_space_trace(cfg, fld, cycles)
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale), \
                (L, eps, h, df, eta)


def test_gate_cache_holds_the_two_latest_theta_units():
    # a resonant drive reuses its two gate sets; off resonance the cache
    # stays at two entries however long the run
    cfg = ProbeConfig(length=3)
    for fld, reused in ((FieldConfig(h_a=1e-3), True),
                        (FieldConfig(h_a=1e-3, delta_f=0.01), False)):
        engine = FloquetEngine(cfg, [fld, FieldConfig(h_a=0.2,
                                                      delta_f=fld.delta_f)])
        first = engine.pair_gates(1)
        assert first.shape == (3, 2, 8, 8)
        for n in range(2, 12):
            engine.pair_gates(n)
        assert len(engine._gate_cache) == 2
        assert (engine.pair_gates(11) is engine.pair_gates(1)) == reused
