"""Fisher-information toolkit: QFI/CFI, averages, power-law fits, transition
search, and the Cramer-Rao arithmetic in experimental units.

Conventions: all Fisher quantities are with respect to the field amplitude
h_a.  Both QFI functions take the engine's (B, 2, ...) stack: qfi_pure uses
its tangent rows, qfi_mixed the spectral formula on its (rho, drho) rows.
CFI is reported for two measurements: the full computational basis and the
coarse-grained collective magnetization of the probe chain.

One loop, record_trace, builds every trace, for psi (stroboscopic_traces)
and for rho (lindblad.noisy_fisher) alike: each cycle it reads the engine's
distribution of state.x into the imbalance and both CFIs, through readout
arrays it builds from engine.cfg, and the QFI of state.x from qfi_mixed or
qfi_pure as engine.mixed says, into one (B, cycles + 1, 5) record in
TRACE_COLUMNS order, whose blocks are the traces' rows (the layout of every
trace CSV); a non-finite distribution raises NumericalError.  The builders
only set up the engine and the initial state.

expcalc maps a physical pair-exchange frequency and coherence time onto the
drive schedule and turns qfi_bound, at the cycle budget, into a Cramer-Rao
sensitivity per root Hz (MATERIALS holds the bundled presets).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundaryPeakWarning, ConfigError, NumericalError
from .floquet import FloquetEngine, initial_state_with_tangent
from .model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    batch_size,
    collective_index_a,
    engine_probe,
    observable_diagonal,
)

PROB_CUTOFF = 1e-14       # probabilities below this are dropped from CFI sums
PEAK_REL_WIDTH = 1e-3     # golden_section_peak stops at this log-space width
EIGSUM_CUTOFF = 1e-12     # eigenvalue-pair cutoff in the mixed-state QFI


#: The columns of a trace, in the order of its rows and of every trace CSV.
TRACE_COLUMNS = ("n", "imbalance", "qfi", "cfi_comp", "cfi_coll")


@dataclass
class StroboscopicTrace:
    """Per-cycle record of the probe observables, n = 0..N: `rows` is the
    (N + 1, 5) float block in TRACE_COLUMNS order, and each named column a
    read-only view of it."""

    rows: np.ndarray
    n = property(lambda self: self.rows[:, 0])
    imbalance = property(lambda self: self.rows[:, 1])
    qfi = property(lambda self: self.rows[:, 2])
    cfi_computational = property(lambda self: self.rows[:, 3])
    cfi_collective = property(lambda self: self.rows[:, 4])

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def cycles(self) -> int:
        return int(self.n[-1])


@dataclass(frozen=True)
class FitResult:
    exponent: float
    prefactor: float
    r_squared: float


def qfi_pure(X: np.ndarray) -> np.ndarray:
    """4( <d psi|d psi> - |<psi|d psi>|^2 ) per field of the (B, 2, d^L)
    stack X of psi and d psi; a value below -1e-10 raises NumericalError."""
    psi, tan = X[:, 0], X[:, 1]
    value = 4.0 * ((tan.real ** 2 + tan.imag ** 2).sum(axis=-1)
                   - np.abs((psi.conj() * tan).sum(axis=-1)) ** 2)
    if np.min(value) < -1e-10:
        raise NumericalError(f"pure-state QFI came out negative: {np.min(value)}")
    return np.maximum(value, 0.0)


def qfi_mixed(X: np.ndarray) -> np.ndarray:
    """Spectral mixed-state QFI: 2 sum |<i|drho|j>|^2 / (lam_i + lam_j) over
    eigenpairs of rho with lam_i + lam_j above cutoff, per field of the
    (B, 2, dim, dim) stack X of rho and drho; the checks cover every field."""
    rho, drho = X[:, 0], X[:, 1]
    # np.allclose's rule, |a - a^H| <= 1e-8 + 1e-5 |a^H|, over the whole stack
    XH = X.conj().swapaxes(-1, -2)
    hermitian = (abs(X - XH) <= 1e-8 + 1e-5 * abs(XH)).all(axis=(0, 2, 3))
    for name, ok in zip(("rho", "drho"), hermitian):
        if not ok:
            raise ValueError(f"{name} is not Hermitian")
    drift = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0))
    if drift > 1e-6:
        raise NumericalError(f"rho trace deviates from 1 by {drift:g}")
    lam, V = np.linalg.eigh(rho)
    if lam.min() < -1e-6:
        raise NumericalError(f"rho has negative eigenvalue {lam.min():g}")
    W = V.conj().swapaxes(-1, -2) @ drho @ V
    denom = lam[..., :, None] + lam[..., None, :]
    denom = np.where(denom > EIGSUM_CUTOFF, denom, np.inf)
    return 2.0 * np.sum(np.abs(W) ** 2 / denom, axis=(-2, -1))


def _cfi_from_probs(p: np.ndarray, dp: np.ndarray) -> float | np.ndarray:
    """sum dp^2 / p over the outcomes with p above PROB_CUTOFF, per row of a
    batch; a probability below -1e-12 in any row raises NumericalError."""
    if p.min() < -1e-12:
        raise NumericalError(f"negative probability {p.min():g}")
    return np.sum(dp ** 2 / np.where(p > PROB_CUTOFF, p, np.inf), axis=-1)


def _readout(p: np.ndarray, dp: np.ndarray, imb_diag: np.ndarray,
             i0: float | np.ndarray, coll_idx: np.ndarray) -> tuple:
    """Imbalance, CFI_computational and CFI_collective of one cycle from the
    basis distribution p and its h_a-derivative dp, per field when p and dp
    hold one row per field.  coll_idx is collective_index_a of the probe:
    the collective CFI coarse-grains p onto the outcomes of
    sum_j sigma^z_{a,j}."""
    imb = (p @ imb_diag) / i0
    # one bincount over all rows: row r's outcome k goes to bin r*width + k
    width = int(coll_idx.max()) + 1
    idx = (coll_idx + width * np.arange(p.size // p.shape[-1])[:, None]).ravel()
    pm, dpm = (np.bincount(idx, weights=w.ravel()).reshape(
        p.shape[:-1] + (width,)) for w in (p, dp))
    return imb, _cfi_from_probs(p, dp), _cfi_from_probs(pm, dpm)


def qfi_bound(cfg: ProbeConfig, n: int) -> float:
    """n^2 L^2 (L+1)^2 / pi^2, the QFI of the ideal reference pair: a scale,
    not a ceiling (tilted traces exceed it; README, "Fisher ceilings")."""
    L = cfg.length
    return n ** 2 * L ** 2 * (L + 1) ** 2 / np.pi ** 2


def record_trace(engine: FloquetEngine, state,
                 cycles: int) -> list[StroboscopicTrace]:
    """Repeat the B = 1 start `state`, a model.EngineState of psi or rho,
    over the engine's fields, step it through `cycles` periods of `engine`,
    in place, and record at every stroboscopic time n = 0..cycles the
    imbalance (over the initial state's, i0) and both CFIs from
    engine.distribution(state.x), and the QFI of state.x (qfi_mixed if
    engine.mixed, else qfi_pure): one trace per field, whose rows are a
    block of one record.  A negative `cycles` raises ConfigError.
    NumericalError: a vanishing i0, before the first cycle, and a state not
    finite after a cycle, before that cycle's readout."""
    if cycles < 0:
        raise ConfigError(f"cycles must be >= 0, got {cycles}")
    state.x = np.repeat(state.x, len(engine.fields), axis=0)
    imb_diag = observable_diagonal(engine.cfg)
    coll_idx = collective_index_a(engine.cfg)
    i0 = engine.distribution(state.x)[0] @ imb_diag
    if np.min(np.abs(i0)) < 1e-12:
        raise NumericalError(
            "initial state has zero imbalance; the normalized trace is undefined")
    # looked up per call, so a rebinding of the module names takes effect
    qfi = qfi_mixed if engine.mixed else qfi_pure
    rec = np.zeros((len(engine.fields), cycles + 1, len(TRACE_COLUMNS)))
    rec[..., 0] = np.arange(cycles + 1)
    rec[:, 0, 1] = 1.0
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
        p, dp = engine.distribution(state.x)
        if not (np.isfinite(p).all() and np.isfinite(dp).all()):
            raise NumericalError(f"the state is not finite after cycle {n}")
        imb, cfi_c, cfi_m = _readout(p, dp, imb_diag, i0, coll_idx)
        rec[:, n, 1:] = np.column_stack((imb, qfi(state.x), cfi_c, cfi_m))
    return [StroboscopicTrace(rows) for rows in rec]


def stroboscopic_traces(cfg: ProbeConfig, fields: list[FieldConfig],
                        init: InitConfig | None = None,
                        cycles: int = 50) -> list[StroboscopicTrace]:
    """Run the unitary engine for `cycles` periods on every field (all
    sharing delta_f and eta) through record_trace: one trace per field.
    The fields propagate as exactly the batch given (model.batch_size
    sizes the ones callers form), at the pair dimension model.engine_probe
    picks for `init` (2^L amplitudes per field at tilt 0); the engine gates
    the state vector."""
    cfg = engine_probe(cfg, init)
    engine = FloquetEngine(cfg, fields)
    return record_trace(engine, initial_state_with_tangent(cfg, init), cycles)


def stroboscopic_trace(cfg: ProbeConfig, field: FieldConfig,
                       init: InitConfig | None = None,
                       cycles: int = 50) -> StroboscopicTrace:
    """One field's trace: the one-field call of stroboscopic_traces."""
    return stroboscopic_traces(cfg, [field], init, cycles)[0]


def point_average(trace: StroboscopicTrace, dn: int, K: int) -> dict[str, np.ndarray]:
    """Split the first K*dn cycles into K windows of width dn and average each
    Fisher quantity per window.

    Two abscissae are reported: `n_mid`, the window midpoint dn*(i - 1/2)
    used for scaling fits, and `n_cumulative`, the running total
    sum_{m<=i} m*dn of the printed bookkeeping convention.
    """
    if dn < 1 or K < 1:
        raise ValueError("window width and count must be >= 1")
    if K * dn > trace.cycles:
        raise ValueError(f"K*dn = {K * dn} exceeds trace length {trace.cycles}")
    i = np.arange(1, K + 1)
    out = {
        "n_mid": dn * (i - 0.5),
        "n_cumulative": dn * i * (i + 1) / 2.0,
    }
    for name in ("qfi", "cfi_computational", "cfi_collective"):
        series = getattr(trace, name)[1:K * dn + 1]
        out[name] = series.reshape(K, dn).mean(axis=1)
    return out


def power_fit(x, y) -> FitResult:
    """Least-squares straight line on (ln x, ln y), in closed form:
    exponent = slope = sum dx dy / sum dx^2 over the deviations from the
    means.  Fewer than 3 points, data that are not positive, or x values
    that are all equal raise ValueError; a fit that is not finite (a
    prefactor beyond float range) raises NumericalError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError(f"power_fit needs at least 3 points, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power_fit requires strictly positive data")
    lx, ly = np.log(x), np.log(y)
    if lx.min() == lx.max():
        raise ValueError(f"power_fit needs two distinct x values; every x "
                         f"is {x[0]:g}")
    dx, dy = lx - lx.mean(), ly - ly.mean()
    slope = (dx @ dy) / (dx @ dx)
    intercept = ly.mean() - slope * lx.mean()
    resid = dy - slope * dx
    ss_tot = dy @ dy
    r2 = 1.0 - resid @ resid / ss_tot if ss_tot > 0 else 1.0
    with np.errstate(over="ignore"):
        fit = FitResult(float(slope), float(np.exp(intercept)), float(r2))
    if not np.isfinite([fit.exponent, fit.prefactor, fit.r_squared]).all():
        raise NumericalError(f"power-law fit is not finite: {fit}")
    return fit


def golden_section_peak(fn, grid: np.ndarray) -> float:
    """Argmax of a unimodal function: coarse grid argmax, then golden-section
    refinement (in log space) of the bracketing interval, down to a width of
    PEAK_REL_WIDTH.

    `fn` is called once on the whole grid array, then on single points.
    Warns with BoundaryPeakWarning when the coarse maximum sits on the grid
    edge, in which case the edge value is returned as-is.  A grid that is
    not positive and strictly increasing raises ValueError before any call.
    """
    grid = np.asarray(grid, dtype=float)
    if not (np.all(grid > 0) and np.all(np.diff(grid) > 0)):
        raise ValueError("the search grid must be positive and strictly "
                         "increasing: the refinement runs in log space")
    vals = np.asarray(fn(grid), dtype=float)
    k = int(np.argmax(vals))
    if k == 0 or k == grid.size - 1:
        warnings.warn("peak at grid boundary; widen the search grid",
                      BoundaryPeakWarning)
        return float(grid[k])
    a, b = np.log(grid[k - 1]), np.log(grid[k + 1])
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(np.exp(c)), fn(np.exp(d))
    while b - a > PEAK_REL_WIDTH:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(np.exp(d))
    return float(np.exp((a + b) / 2.0))


def find_transition(cfg: ProbeConfig, field_template: FieldConfig, n: int = 10,
                    h_grid: np.ndarray | None = None,
                    init: InitConfig | None = None) -> float:
    """Field amplitude h_a^max at which QFI(n) peaks (the DTC collapse
    point) from the initial state `init`.  The coarse grid runs in engine
    batches of model.batch_size fields."""
    if h_grid is None:
        h_grid = np.logspace(-5, 0, 40)
    size = batch_size(engine_probe(cfg, init), mixed=False)

    def peak_qfi(h):
        fields = [replace(field_template, h_a=x) for x in np.ravel(h)]
        qfi = [trace.qfi[n] for i in range(0, len(fields), size)
               for trace in stroboscopic_traces(cfg, fields[i:i + size],
                                                init, n)]
        return np.reshape(qfi, np.shape(h))

    return golden_section_peak(peak_qfi, h_grid)


#: f_pair (Hz) and coherence time (s) for the bundled material presets.
MATERIALS = {
    "Dy": {"f_pair_hz": 60.0, "coherence_s": 0.1},
    "Er": {"f_pair_hz": 29.4, "coherence_s": 0.1},
}


def expcalc(f_pair_hz: float, coherence_s: float, length: int,
            unit_scale: float = 1.0) -> dict[str, float]:
    """All derived timing and sensitivity quantities, as a flat record.

    The exchange half-period is t2 = 1/(2 pi f_pair) and the drive period
    equals t2 (the timing-limited convention); n_max periods fit into the
    coherence window, and the shot rate is what is left.  The sensitivity
    is the Cramer-Rao limit on qfi_bound at n_max, in the caller's field
    units through `unit_scale` (see calibrate_unit_scale).  Inputs whose
    budget or Fisher information is beyond float range raise ConfigError."""
    if not all(0.0 < x < np.inf for x in (f_pair_hz, coherence_s, unit_scale)):
        raise ConfigError("pair frequency, coherence time and unit scale must "
                          "be finite and positive")
    probe = ProbeConfig(length=length)  # ProbeConfig's rule for L
    t2_s = 1.0 / (2.0 * np.pi * f_pair_hz)
    period_s = t2_s
    n_max = float(np.floor(coherence_s / period_s))  # whole, or inf
    if n_max < 1:
        raise ConfigError(f"coherence_s = {coherence_s:g} s is shorter than "
                          f"one drive period ({period_s * 1e3:.6g} ms)")
    shots_per_s = 1.0 / (n_max * period_s)
    try:  # int(inf), or qfi_bound's exact integer beyond float range
        information = qfi_bound(probe, int(n_max)) * shots_per_s
    except OverflowError:
        information = np.inf
    if not information < np.inf:
        raise ConfigError(f"f_pair_hz = {f_pair_hz:g} and coherence_s = "
                          f"{coherence_s:g} give a budget of {n_max:g} drive "
                          "periods, whose Fisher information overflows")
    return {
        "f_pair_hz": f_pair_hz,
        "coherence_s": coherence_s,
        "length": float(probe.length),
        "unit_scale": unit_scale,
        "t2_ms": t2_s * 1e3,
        "period_ms": period_s * 1e3,
        "n_max": n_max,
        "shots_per_s": shots_per_s,
        "sensitivity": unit_scale / np.sqrt(information),
        # the large-L form, coeff / L^2, whose coefficient experimental
        # papers tend to quote
        "sensitivity_coeff_per_l2":
            unit_scale * np.pi / (n_max * np.sqrt(shots_per_s)),
    }


def calibrate_unit_scale(target_coeff: float, f_pair_hz: float,
                         coherence_s: float) -> float:
    """One-point calibration: the unit_scale that makes the large-L
    sensitivity coefficient equal `target_coeff` at the reference inputs."""
    raw = expcalc(f_pair_hz, coherence_s, length=1)["sensitivity_coeff_per_l2"]
    return target_coeff / raw


def material_record(name: str, length: int = 10,
                    unit_scale: float = 1.0) -> dict[str, float]:
    if name not in MATERIALS:
        raise ConfigError(f"unknown material {name!r}; presets: {sorted(MATERIALS)}")
    preset = MATERIALS[name]
    return expcalc(preset["f_pair_hz"], preset["coherence_s"], length, unit_scale)
