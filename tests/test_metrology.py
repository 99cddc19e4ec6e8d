import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from dtc_sense import metrology, model
from dtc_sense.errors import (
    BoundaryPeakWarning,
    ConfigError,
    NumericalError,
    ResourceLimitError,
)
from dtc_sense.floquet import FloquetEngine, initial_state_with_tangent
from dtc_sense.lindblad import noisy_fisher
from dtc_sense.metrology import (
    TRACE_COLUMNS,
    StroboscopicTrace,
    _cfi_from_probs,
    _readout,
    find_transition,
    golden_section_peak,
    point_average,
    power_fit,
    qfi_bound,
    qfi_mixed,
    qfi_pure,
    stroboscopic_trace,
    stroboscopic_traces,
)
from dtc_sense.model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    EngineState,
    collective_index_a,
    observable_diagonal,
)


def _random_state_and_generator(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A = (A + A.conj().T) / 2
    return psi, A


def _pure(psi, tan):
    """The EngineState stack of statevectors `psi` and tangents `tan`, each one
    state (d^L,) or one row per field (B, d^L)."""
    x = np.stack((psi, tan), axis=-2)
    return EngineState(x.reshape(-1, 2, psi.shape[-1]))


def _rho_stack(rho, drho):
    """The B = 1 (1, 2, dim, dim) stack of rho and d rho."""
    return np.stack((rho, drho))[None]


# ----------------------------------------------------------------- qfi_pure

def test_qfi_pure_gauge_tangent_vanishes():
    # tangent parallel to the state is a pure phase derivative
    psi, _ = _random_state_and_generator(16, seed=0)
    state = _pure(psi, 2.7j * psi)
    assert qfi_pure(state.x) == 0.0


def test_qfi_pure_is_four_times_generator_variance():
    psi, A = _random_state_and_generator(16, seed=1)
    state = _pure(psi, -1j * (A @ psi))
    var = np.vdot(psi, A @ A @ psi).real - np.vdot(psi, A @ psi).real ** 2
    assert qfi_pure(state.x) == pytest.approx(4 * var, rel=1e-10)


# ---------------------------------------------------------------- qfi_mixed

def test_qfi_mixed_agrees_with_pure_limit():
    cfg = ProbeConfig(length=2)
    fld = FieldConfig(h_a=0.05)
    engine = FloquetEngine(cfg, fld)
    state = initial_state_with_tangent(cfg)
    for n in range(1, 8):
        engine.apply_cycle(state, n)
    psi, dpsi = state.x[:, 0], state.tangent
    rho = np.outer(psi, psi.conj())
    drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    assert qfi_mixed(_rho_stack(rho, drho)) == pytest.approx(
        qfi_pure(state.x), rel=1e-8)


def test_qfi_mixed_insensitive_generator_gives_zero():
    dim = 8
    rho = np.eye(dim) / dim
    assert qfi_mixed(_rho_stack(rho, np.zeros((dim, dim)))) == 0.0


@pytest.mark.parametrize("which", ["rho", "drho"])
def test_qfi_mixed_rejects_non_hermitian(which):
    args = {"rho": np.eye(4) / 4.0, "drho": np.zeros((4, 4))}
    args[which][0, 1] = 0.5
    with pytest.raises(ValueError, match=f"^{which} is not Hermitian"):
        qfi_mixed(_rho_stack(args["rho"], args["drho"]))


def test_qfi_mixed_rejects_trace_drift():
    rho = np.eye(4) / 4.0 * 0.9
    with pytest.raises(NumericalError):
        qfi_mixed(_rho_stack(rho, np.zeros((4, 4))))


def test_qfi_mixed_rejects_negative_eigenvalue():
    # unit trace and Hermitian, but not positive
    rho = np.diag([1.2, -0.2])
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        qfi_mixed(_rho_stack(rho, np.zeros((2, 2))))


# --------------------------------------------------------------------- CFI

def _pure_readout(state, cfg):
    """Shared per-cycle readout of a pure state with a tangent: (imbalance,
    CFI_computational, CFI_collective)."""
    psi = state.x[:, 0]
    p = np.abs(psi) ** 2
    dp = 2.0 * np.real(np.conj(psi) * state.tangent)
    return _readout(p, dp, observable_diagonal(cfg),
                    1.0, collective_index_a(cfg))


def test_cfi_zero_for_insensitive_distribution():
    cfg = ProbeConfig(length=2)
    psi, _ = _random_state_and_generator(cfg.dim, seed=2)
    state = _pure(psi, np.zeros(cfg.dim, dtype=complex))
    _, c_comp, c_coll = _pure_readout(state, cfg)
    assert c_comp == 0.0 and c_coll == 0.0


def test_cfi_negative_probability_rejected():
    p = np.array([-1e-10, 1.0 + 1e-10, 0.0, 0.0])
    with pytest.raises(NumericalError):
        _cfi_from_probs(p, np.zeros(4))
    with pytest.raises(NumericalError):
        _readout(p, np.zeros(4), np.ones(4), 1.0, np.zeros(4, dtype=int))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), L=st.integers(1, 3))
def test_fisher_hierarchy(seed, L):
    # any measurement loses information: QFI >= comp CFI >= collective CFI
    cfg = ProbeConfig(length=L)
    psi, A = _random_state_and_generator(cfg.dim, seed)
    state = _pure(psi, -1j * (A @ psi))
    q = qfi_pure(state.x)
    _, c_comp, c_coll = _pure_readout(state, cfg)
    assert q >= c_comp - 1e-8 * max(1.0, q)
    assert c_comp >= c_coll - 1e-8 * max(1.0, c_comp)


def test_cfi_collective_matches_manual_grouping():
    cfg = ProbeConfig(length=3)
    psi, A = _random_state_and_generator(cfg.dim, seed=3)
    state = _pure(psi, -1j * (A @ psi))
    p = np.abs(psi) ** 2
    dp = 2 * np.real(psi.conj() * state.tangent[0])
    groups = {}
    for z in range(cfg.dim):
        # outcome: number of up spins on chain a (bit 2(j-1) clear)
        k = sum(1 - ((z >> (2 * j)) & 1) for j in range(cfg.length))
        groups.setdefault(k, [0.0, 0.0])
        groups[k][0] += p[z]
        groups[k][1] += dp[z]
    manual = sum(d * d / pk for pk, d in groups.values() if pk > 1e-14)
    assert _pure_readout(state, cfg)[2] == pytest.approx(manual, rel=1e-12)


# ------------------------------------------------------------------ bounds

def test_qfi_bound_examples():
    assert qfi_bound(ProbeConfig(length=1), 1) == pytest.approx(4 / np.pi ** 2)
    assert qfi_bound(ProbeConfig(length=3), 5) == pytest.approx(
        25 * 9 * 16 / np.pi ** 2)


def test_variance_bound_saturates_for_untitled_state():
    cfg = ProbeConfig(length=3)
    assert oracles.qfi_bound_variance(cfg, 5) == pytest.approx(
        qfi_bound(cfg, 5), rel=1e-12)
    assert oracles.qfi_bound_variance(cfg, 5) == pytest.approx(
        364.7562611124159)


def test_trace_qfi_respects_variance_bound():
    cfg = ProbeConfig(length=3)
    trace = stroboscopic_trace(cfg, FieldConfig(h_a=1e-5), cycles=12)
    for n in range(1, 13):
        assert trace.qfi[n] <= qfi_bound(cfg, n) * (1 + 1e-10)


def test_pang_jordan_bound_at_resonance():
    # at delta_f = 0 the integral of |sin| over n periods is 2n/pi, so the
    # ceiling is 4 (1 -+ eta)^2 qfi_bound; off resonance it follows the
    # closed form between the zeros of the drive
    cfg = ProbeConfig(length=3)
    for tilt, factor in ((0.0, 0.8), (0.1, 1.2)):
        bound = oracles.pang_jordan_bound(cfg, FieldConfig(eta=0.2), 7, tilt)
        assert bound == pytest.approx(4 * factor ** 2 * qfi_bound(cfg, 7),
                                      rel=1e-14)
    # delta_f = 1 over one period: two whole half-waves of area 1/pi each
    bound = oracles.pang_jordan_bound(cfg, FieldConfig(delta_f=1.0), 1)
    assert bound == pytest.approx((12 * 2 / np.pi) ** 2, rel=1e-14)


@pytest.mark.parametrize("tilt", [0.0, 0.1])
@pytest.mark.parametrize("delta_f,eta", [(0.0, 0.0), (-0.3, 0.4), (0.5, 0.2)])
def test_separable_ceiling_against_pang_jordan(delta_f, eta, tilt):
    # uncoupled pairs: equal to the Pang-Jordan ceiling for one pair, and
    # below it by 3L(L+1) / (2(2L+1)) for more (10.9 at L = 14)
    fld, n = FieldConfig(delta_f=delta_f, eta=eta), np.array([1, 7, 50])
    one = ProbeConfig(length=1)
    assert np.allclose(oracles.separable_ceiling(one, fld, n, tilt),
                       oracles.pang_jordan_bound(one, fld, n, tilt),
                       rtol=1e-14, atol=0)
    for L in range(2, 17):
        cfg = ProbeConfig(length=L)
        sep = oracles.separable_ceiling(cfg, fld, n, tilt)
        pj = oracles.pang_jordan_bound(cfg, fld, n, tilt)
        assert np.all(sep < pj)
        assert np.allclose(pj / sep, 3 * L * (L + 1) / (2 * (2 * L + 1)),
                           rtol=1e-13, atol=0)


@st.composite
def _bound_cases(draw, max_length):
    # (probe, field, init) over L, epsilon, eta, delta_f, tilt and h_a; the
    # tilt stays below pi/4, where the initial imbalance vanishes
    cfg = ProbeConfig(length=draw(st.integers(1, max_length)),
                      epsilon=draw(st.floats(0.0, 0.9)))
    fld = FieldConfig(h_a=10.0 ** draw(st.floats(-5.0, 1.0)),
                      delta_f=draw(st.floats(-0.5, 0.5)),
                      eta=draw(st.floats(0.0, 0.9)))
    tilt = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.7)))
    return cfg, fld, InitConfig(tilt=tilt)


@settings(max_examples=60, deadline=None)
@given(case=_bound_cases(max_length=4))
def test_pure_qfi_respects_pang_jordan_bound(case):
    cfg, fld, init = case
    qfi = stroboscopic_trace(cfg, fld, init, cycles=20).qfi
    bound = oracles.pang_jordan_bound(cfg, fld, np.arange(21), init.tilt)
    assert np.all(qfi <= bound * (1 + 1e-10))


@settings(max_examples=25, deadline=None)
@given(case=_bound_cases(max_length=3), gamma=st.floats(1e-4, 0.1))
def test_dephased_qfi_respects_pang_jordan_bound(case, gamma):
    # dephasing mixes runs that each obey the ceiling, and the QFI is convex
    cfg, fld, init = case
    qfi = noisy_fisher(cfg, [fld], gamma, 20, init)[0].qfi
    bound = oracles.pang_jordan_bound(cfg, fld, np.arange(21), init.tilt)
    assert np.all(qfi <= bound * (1 + 1e-10))


def _beyond_the_cone(traces, name, n, start, order, weight=False):
    """The largest |order-th difference over L| of trace `name` at cycle n,
    times L if `weight`, on L = start..max, relative to its largest value."""
    L = np.arange(start, max(traces) + 1)
    y = np.array([getattr(traces[k], name)[n] for k in L])
    y = y * L if weight else y
    return np.abs(np.diff(y, order)).max() / np.abs(y).max()


# no shrinking: each example runs 23 traces up to L = 16 (about 1.4 s), so
# shrinking a failure runs for minutes
@settings(max_examples=2, deadline=None, phases=(Phase.reuse, Phase.generate))
@given(eps=st.floats(0.02, 0.4), eta=st.floats(0.0, 0.3),
       df=st.floats(-0.05, 0.05))
def test_fixed_time_traces_are_polynomial_beyond_the_light_cone(eps, eta, df):
    # the Ising bond is the only coupling between pairs, so in n cycles a
    # pair operator spreads over at most n - 1 pairs per side: at h_a = 0 and
    # tilt 0 the covariance of pairs j and k vanishes for |j - k| > 2(n - 1)
    # and depends on k - j alone away from the ends.  With the field weight
    # j, L * imbalance(L, n) is then linear in L from L = 2(n - 1), and
    # QFI(L, n) cubic from L = 4(n - 1); a dephased run keeps the first.
    fld = FieldConfig(delta_f=df, eta=eta)
    pure = {L: stroboscopic_trace(ProbeConfig(length=L, epsilon=eps), fld,
                                  cycles=4) for L in range(2, 17)}
    mixed = {L: noisy_fisher(ProbeConfig(length=L, epsilon=eps), [fld], 1e-2,
                             cycles=3)[0] for L in range(2, 10)}
    for n in (2, 3, 4):
        assert _beyond_the_cone(pure, "qfi", n, 4 * (n - 1), 4) <= 1e-10
        assert _beyond_the_cone(pure, "imbalance", n, 2 * (n - 1), 2,
                                weight=True) <= 1e-10
    for n in (2, 3):
        assert _beyond_the_cone(mixed, "imbalance", n, 2 * (n - 1), 2,
                                weight=True) <= 1e-10


# ----------------------------------------------------------------- windows

def _toy_trace(values):
    values = np.asarray(values, dtype=float)
    m = values.size - 1
    return StroboscopicTrace(np.column_stack(
        (np.arange(m + 1), np.ones(m + 1), values, 0.5 * values,
         0.25 * values)))


def test_time_average_running_mean():
    trace = _toy_trace([0.0, 1.0, 2.0, 3.0, 4.0])
    out = oracles.time_average(trace, 4)
    assert out["qfi"] == pytest.approx(2.5)
    assert out["cfi_computational"] == pytest.approx(1.25)
    assert oracles.time_average(trace, 1)["qfi"] == pytest.approx(1.0)


def test_time_average_window_validation():
    trace = _toy_trace([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        oracles.time_average(trace, 0)
    with pytest.raises(ValueError):
        oracles.time_average(trace, 3)


def test_point_average_windows_and_abscissae():
    trace = _toy_trace(np.arange(13.0))  # qfi[n] = n, 12 cycles
    out = point_average(trace, dn=4, K=3)
    assert np.allclose(out["qfi"], [2.5, 6.5, 10.5])
    assert np.allclose(out["n_mid"], [2.0, 6.0, 10.0])
    assert np.allclose(out["n_cumulative"], [4.0, 12.0, 24.0])
    single = point_average(trace, dn=12, K=1)
    assert single["qfi"][0] == pytest.approx(np.arange(1.0, 13.0).mean())


def test_point_average_validation():
    trace = _toy_trace(np.arange(11.0))
    with pytest.raises(ValueError):
        point_average(trace, dn=5, K=3)
    with pytest.raises(ValueError):
        point_average(trace, dn=0, K=2)


# -------------------------------------------------------------------- fits

def test_power_fit_recovers_exact_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = power_fit(x, 2.0 * x ** 3)
    assert fit.exponent == pytest.approx(3.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_power_fit_flat_data():
    fit = power_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(5.0, rel=1e-12)


def test_power_fit_validation():
    with pytest.raises(ValueError):
        power_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        power_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    # every input is finite and positive, but the prefactor 1e600 is not
    with pytest.raises(NumericalError, match="not finite"):
        power_fit([1e-300, 2e-300, 4e-300], [1e300, 2e300, 4e300])


@pytest.mark.parametrize("x", [[3.0, 3.0, 3.0], [0.1] * 7])
def test_power_fit_refuses_equal_abscissae(x):
    # points that share one ln x fix no line: a ValueError, where a least-
    # squares solver would return a slope behind a rank warning
    with pytest.raises(ValueError, match="two distinct x values"):
        power_fit(x, 2.0 ** np.arange(len(x)))


def test_power_fit_is_the_least_squares_line():
    # the closed form against the normal equations solved by numpy
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0.5, 20.0, 9), rng.uniform(0.1, 5.0, 9)
    fit = power_fit(x, y)
    A = np.column_stack((np.log(x), np.ones(9)))
    slope, intercept = np.linalg.lstsq(A, np.log(y), rcond=None)[0]
    assert fit.exponent == pytest.approx(slope, rel=1e-12)
    assert fit.prefactor == pytest.approx(np.exp(intercept), rel=1e-12)
    resid = np.log(y) - A @ (slope, intercept)
    r2 = 1 - resid @ resid / np.sum((np.log(y) - np.log(y).mean()) ** 2)
    assert fit.r_squared == pytest.approx(r2, rel=1e-12)


# ----------------------------------------------------------- peak location

def test_golden_section_finds_interior_peak():
    peak = golden_section_peak(lambda h: -(np.log(h / 0.1)) ** 2,
                               np.logspace(-4, 0, 25))
    assert peak == pytest.approx(0.1, rel=2e-3)


def test_golden_section_warns_on_boundary():
    with pytest.warns(BoundaryPeakWarning):
        edge = golden_section_peak(lambda h: h, np.logspace(-4, 0, 10))
    assert edge == pytest.approx(1.0)


@pytest.mark.parametrize("grid", [
    pytest.param([0.0, 0.5, 1.0, 2.0], id="zero"),
    pytest.param([-1.0, 0.5, 1.0, 2.0], id="negative"),
    pytest.param([1e-3, 1e-2, 1e-2, 1.0], id="repeated"),
    pytest.param([2.0, 1.0, 0.5, 1e-3], id="decreasing"),
])
def test_golden_section_rejects_a_grid_it_cannot_refine(grid, monkeypatch):
    # the refinement runs in log space: a zero made it return NaN after a
    # divide-by-zero warning, and an unsorted grid brackets the wrong
    # interval; both are refused before any evaluation or trace
    calls = []
    with pytest.raises(ValueError, match="strictly increasing"):
        golden_section_peak(lambda h: calls.append(h) or -(h - 0.5) ** 2,
                            np.array(grid))
    assert calls == []
    monkeypatch.setattr(metrology, "stroboscopic_traces",
                        lambda *args: pytest.fail("a trace ran"))
    with pytest.raises(ValueError, match="strictly increasing"):
        find_transition(ProbeConfig(length=2), FieldConfig(), 4,
                        np.array(grid))


def test_find_transition_small_probe():
    cfg = ProbeConfig(length=2)
    h_max = find_transition(cfg, FieldConfig(), n=6)
    assert 1e-5 < h_max < 1.0
    # the located point beats its decade neighbours


    def qfi_at(h):
        tr = stroboscopic_trace(cfg, FieldConfig(h_a=h), cycles=6)
        return tr.qfi[6]

    assert qfi_at(h_max) >= qfi_at(h_max / 3)
    assert qfi_at(h_max) >= qfi_at(min(h_max * 3, 1.0))


# --------------------------------------------------------------- the trace

def test_trace_initial_row_and_shape():
    cfg = ProbeConfig(length=2)
    trace = stroboscopic_trace(cfg, FieldConfig(h_a=1e-3), cycles=9)
    assert len(trace) == 10
    assert trace.cycles == 9
    assert trace.imbalance[0] == 1.0
    assert trace.qfi[0] == 0.0


@pytest.mark.parametrize("gamma", [0.0, 1e-3])
def test_trace_columns_are_views_of_its_rows(gamma):
    # a trace is its (cycles + 1, 5) block of rows; each named column is a
    # read-only view of it, in TRACE_COLUMNS order, for either engine
    cfg, fld = ProbeConfig(length=2), FieldConfig(h_a=1e-3)
    trace = (noisy_fisher(cfg, [fld], gamma, 6)[0] if gamma
             else stroboscopic_trace(cfg, fld, cycles=6))
    assert TRACE_COLUMNS == ("n", "imbalance", "qfi", "cfi_comp", "cfi_coll")
    assert trace.rows.shape == (7, len(TRACE_COLUMNS))
    assert np.array_equal(trace.rows[:, 0], np.arange(7))
    names = ("n", "imbalance", "qfi", "cfi_computational", "cfi_collective")
    for j, name in enumerate(names):
        column = getattr(trace, name)
        assert np.shares_memory(column, trace.rows), name
        assert np.array_equal(column, trace.rows[:, j]), name
        with pytest.raises(AttributeError):
            setattr(trace, name, column)


def test_trace_matches_dense_oracle_qfi():
    cfg = ProbeConfig(length=2, epsilon=0.1)
    fld = FieldConfig(h_a=1e-3)
    trace = stroboscopic_trace(cfg, fld, cycles=15)
    ref = oracles.dense_qfi_fd(cfg, fld, cycles=15)
    assert trace.qfi[15] == pytest.approx(ref, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(h=st.floats(1e-6, 0.5), eta=st.floats(0.0, 0.9),
       df=st.floats(-0.05, 0.05), eps=st.floats(0.05, 0.3))
def test_crosstalk_rescales_the_field(h, eta, df, eps):
    # from tilt 0 the field couples only through (G_a + eta G_b) restricted
    # to the one-up-per-pair sector, (1 - eta) sum_j j tau^z_j, so
    # QFI(h, eta) = (1 - eta)^2 QFI((1 - eta) h, 0) at every cycle
    cfg = ProbeConfig(length=4, epsilon=eps)
    with_eta = stroboscopic_trace(cfg, FieldConfig(h_a=h, delta_f=df, eta=eta),
                                  cycles=10).qfi
    rescaled = stroboscopic_trace(
        cfg, FieldConfig(h_a=(1 - eta) * h, delta_f=df), cycles=10).qfi
    diff = np.abs(with_eta - (1 - eta) ** 2 * rescaled)
    assert diff.max() <= 1e-11 * with_eta.max()


# --------------------------------------------------------- batched fields

_BATCH_H = np.logspace(-5, 0, 40)


def _columns(trace):
    return np.column_stack([trace.imbalance, trace.qfi,
                            trace.cfi_computational, trace.cfi_collective])


@pytest.mark.parametrize("L", [3, 5, 7])
@pytest.mark.parametrize("df,eta", [(0.0, 0.0), (0.01, 0.1)])
def test_batch_fields_match_single_field_runs(L, df, eta):
    # every field of a 40-point h_a batch reproduces its own B = 1 run to
    # 1e-13 of each column's largest value
    cfg = ProbeConfig(length=L, epsilon=0.1)
    fields = [FieldConfig(h_a=h, delta_f=df, eta=eta) for h in _BATCH_H]
    batch = stroboscopic_traces(cfg, fields, cycles=10)
    for trace, fld in zip(batch, fields):
        got = _columns(trace)
        ref = _columns(stroboscopic_trace(cfg, fld, cycles=10))
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale), fld


def test_batch_split_to_the_state_size_gate_matches(monkeypatch):
    # find_transition cuts its coarse grid by model.batch_size: with a
    # budget of 16 amplitudes (2 sector fields at L = 3) the five-point grid
    # runs as pieces of 2, 2 and 1 and finds the unsplit run's peak
    batches = []

    def recording(cfg, fields, *args):
        batches.append(len(fields))
        return stroboscopic_traces(cfg, fields, *args)

    monkeypatch.setattr(metrology, "stroboscopic_traces", recording)
    cfg, grid = ProbeConfig(length=3), np.logspace(-2, 0.5, 5)
    whole = find_transition(cfg, FieldConfig(), 6, grid)
    assert batches[0] == 5 and set(batches[1:]) == {1}
    batches.clear()
    monkeypatch.setattr(model, "PURE_STATE_MAX_DIM", 16)
    pieces = find_transition(cfg, FieldConfig(), 6, grid)
    assert batches[:3] == [2, 2, 1] and set(batches[3:]) == {1}
    assert abs(pieces - whole) <= 1e-13 * whole


def test_pure_builder_gates_the_state_vector():
    # 2^17 amplitudes from tilt 0 exceed the 4^8 pure-state budget
    with pytest.raises(ResourceLimitError):
        stroboscopic_traces(ProbeConfig(length=17), [FieldConfig()], cycles=1)
    # a negative cycle count is the caller's error, worded as the CLI's
    with pytest.raises(ConfigError, match="^cycles must be >= 0, got -1$"):
        stroboscopic_traces(ProbeConfig(length=2), [FieldConfig(h_a=1e-3)],
                            None, -1)


def test_batch_requires_shared_offset_and_crosstalk():
    cfg = ProbeConfig(length=2)
    for other in (FieldConfig(h_a=1e-3, delta_f=0.01),
                  FieldConfig(h_a=1e-3, eta=0.1)):
        with pytest.raises(ValueError):
            stroboscopic_traces(cfg, [FieldConfig(h_a=1e-2), other], cycles=2)
        with pytest.raises(ValueError):
            FloquetEngine(cfg, [FieldConfig(h_a=1e-2), other])
    with pytest.raises(ValueError):
        FloquetEngine(cfg, [])


def test_batch_numerical_checks_cover_every_field():
    # only the second field is broken; the batch must still refuse
    psi, A = _random_state_and_generator(16, seed=4)
    good = -1j * (A @ psi)
    e0 = np.eye(16)[0].astype(complex)
    # |<psi|t>|^2 > <t|t>: an unnormalized second state gives a negative QFI
    state = _pure(np.stack([psi, 2.0 * e0]), np.stack([good, e0]))
    with pytest.raises(NumericalError):
        qfi_pure(state.x)
    p = np.stack([np.abs(psi) ** 2, np.abs(psi) ** 2])
    p[1, 0] = -1e-10
    dp = np.zeros_like(p)
    cfg = ProbeConfig(length=2)
    with pytest.raises(NumericalError):
        _readout(p, dp, observable_diagonal(cfg), 1.0,
                 collective_index_a(cfg))
    with pytest.raises(NumericalError):
        _cfi_from_probs(p, dp)


def test_batched_readout_matches_row_by_row():
    cfg = ProbeConfig(length=3)
    rows = [_random_state_and_generator(cfg.dim, seed) for seed in (5, 6, 7)]
    psi = np.stack([r[0] for r in rows])
    tan = np.stack([-1j * (A @ p) for p, A in rows])
    p = np.abs(psi) ** 2
    dp = 2.0 * np.real(psi.conj() * tan)
    imb_diag = observable_diagonal(cfg)
    coll = collective_index_a(cfg)
    batched = _readout(p, dp, imb_diag, 1.0, coll)
    qfi = qfi_pure(_pure(psi, tan).x)
    for b in range(3):
        single = _readout(p[b], dp[b], imb_diag, 1.0, coll)
        for got, ref in zip(batched, single):
            assert got[b] == pytest.approx(ref, rel=1e-13, abs=1e-15)
        assert qfi[b] == pytest.approx(
            qfi_pure(_pure(psi[b], tan[b]).x), rel=1e-13)


def test_golden_section_evaluates_the_grid_in_one_call():
    calls = []

    def fn(h):
        calls.append(np.shape(h))
        return -(np.log(h / 0.1)) ** 2

    grid = np.logspace(-4, 0, 25)
    golden_section_peak(fn, grid)
    assert calls[0] == grid.shape
    assert all(shape == () for shape in calls[1:])
