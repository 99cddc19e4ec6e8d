"""Fisher-information toolkit: QFI/CFI, averages, power-law fits, transition search.

Conventions: all Fisher quantities are with respect to the field amplitude
h_a.  Pure-state QFI uses the tangent vector carried by the state; mixed-state
QFI uses the spectral formula on (rho, drho).  CFI is reported for two
measurements: the full computational basis and the coarse-grained collective
magnetization of the probe chain.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .errors import BoundaryPeakWarning, NumericalError
from .floquet import FloquetEngine, initial_state_with_tangent
from .model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    PureState,
    build_initial_state,
    collective_index_a,
    engine_probe,
    observable_diagonal,
)

PROB_CUTOFF = 1e-14       # probabilities below this are dropped from CFI sums
EIGSUM_CUTOFF = 1e-12     # eigenvalue-pair cutoff in the mixed-state QFI


@dataclass
class StroboscopicTrace:
    """Per-cycle record of the probe observables, n = 0..N."""

    n: np.ndarray
    imbalance: np.ndarray
    qfi: np.ndarray
    cfi_computational: np.ndarray
    cfi_collective: np.ndarray
    probe: ProbeConfig | None = None
    field: FieldConfig | None = None
    init: InitConfig | None = None
    gamma: float = 0.0

    def __len__(self) -> int:
        return len(self.n)

    @property
    def cycles(self) -> int:
        return int(self.n[-1])


@dataclass(frozen=True)
class FitResult:
    exponent: float
    prefactor: float
    r_squared: float
    points: tuple = dataclass_field(default=())


def qfi_pure(state: PureState) -> float:
    """4( <d psi|d psi> - |<psi|d psi>|^2 ) from the attached tangent vector."""
    if state.tangent is None:
        raise ValueError("state carries no tangent vector")
    psi, tan = state.amplitudes, state.tangent
    value = 4.0 * (np.vdot(tan, tan).real - abs(np.vdot(psi, tan)) ** 2)
    if value < -1e-10:
        raise NumericalError(f"pure-state QFI came out negative: {value}")
    return max(value, 0.0)


def qfi_mixed(rho: np.ndarray, drho: np.ndarray) -> float:
    """Spectral mixed-state QFI: 2 sum |<i|drho|j>|^2 / (lam_i + lam_j) over
    eigenpairs of rho with lam_i + lam_j above cutoff."""
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise ValueError("rho is not Hermitian")
    if not np.allclose(drho, drho.conj().T, atol=1e-8):
        raise ValueError("drho is not Hermitian")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-6:
        raise NumericalError(f"rho trace deviates from 1 by {tr - 1.0:g}")
    lam, V = np.linalg.eigh(rho)
    if lam.min() < -1e-6:
        raise NumericalError(f"rho has negative eigenvalue {lam.min():g}")
    W = V.conj().T @ drho @ V
    denom = lam[:, None] + lam[None, :]
    mask = denom > EIGSUM_CUTOFF
    return float(2.0 * np.sum(np.abs(W[mask]) ** 2 / denom[mask]))


def _cfi_from_probs(p: np.ndarray, dp: np.ndarray) -> float:
    if p.min() < -1e-12:
        raise NumericalError(f"negative probability {p.min():g}")
    mask = p > PROB_CUTOFF
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def _imbalance_norm(i0: float) -> float:
    """The initial imbalance i0 that normalizes a trace; raises
    NumericalError when it vanishes and the normalized trace is undefined."""
    if abs(i0) < 1e-12:
        raise NumericalError(
            "initial state has zero imbalance; the normalized trace is undefined")
    return i0


def _readout(p: np.ndarray, dp: np.ndarray | None, imb_diag: np.ndarray,
             i0: float, coll_idx: np.ndarray | None
             ) -> tuple[float, float, float]:
    """Imbalance, CFI_computational and CFI_collective of one cycle from the
    basis distribution p and its h_a-derivative dp (both CFIs are 0 when dp
    is None).  coll_idx is collective_index_a of the probe: the collective
    CFI coarse-grains p onto the outcomes of sum_j sigma^z_{a,j}."""
    imb = (imb_diag @ p) / i0
    if dp is None:
        return imb, 0.0, 0.0
    pm = np.bincount(coll_idx, weights=p)
    dpm = np.bincount(coll_idx, weights=dp)
    return imb, _cfi_from_probs(p, dp), _cfi_from_probs(pm, dpm)


def qfi_bound(cfg: ProbeConfig, n: int) -> float:
    """Analytic resonant-QFI ceiling n^2 L^2 (L+1)^2 / pi^2."""
    L = cfg.length
    return n ** 2 * L ** 2 * (L + 1) ** 2 / np.pi ** 2


def _pair_swap_permutation(cfg: ProbeConfig) -> np.ndarray:
    """Basis permutation exchanging a_j <-> b_j within every pair (of the
    full pair space, d = 4)."""
    z = np.arange(cfg.dim)
    even_mask = 0x5555555555555555 & (cfg.dim - 1)
    odd_mask = 0xAAAAAAAAAAAAAAAA & (cfg.dim - 1)
    return ((z & even_mask) << 1) | ((z & odd_mask) >> 1)


def qfi_bound_variance(cfg: ProbeConfig, n: int,
                       init: InitConfig | None = None) -> float:
    """Variance form of the bound, 4 n^2 Var(G) / pi^2, evaluated on the
    equal superposition of the initial state and its pair-swapped partner
    (the subharmonic reference pair).  For the tilt=0 state this equals
    qfi_bound exactly."""
    cfg = replace(cfg, pair_dim=4)
    psi0 = build_initial_state(cfg, init).amplitudes
    ref = psi0 + psi0[_pair_swap_permutation(cfg)]
    ref = ref / np.linalg.norm(ref)
    g = observable_diagonal(cfg, "gradient-z-a")
    p = np.abs(ref) ** 2
    var = float(g ** 2 @ p - (g @ p) ** 2)
    return 4.0 * n ** 2 * var / np.pi ** 2


def stroboscopic_trace(cfg: ProbeConfig, field: FieldConfig,
                       init: InitConfig | None = None, cycles: int = 50,
                       with_fisher: bool = True) -> StroboscopicTrace:
    """Run the unitary engine for `cycles` periods, recording imbalance and
    (optionally) QFI plus both CFIs at every stroboscopic time n = 0..cycles.
    The engine runs at the pair dimension model.engine_probe picks for
    `init`, so a tilt-0 run holds 2^L amplitudes."""
    cfg = engine_probe(cfg, init)
    engine = FloquetEngine(cfg, field)
    state = initial_state_with_tangent(cfg, init) if with_fisher \
        else build_initial_state(cfg, init)
    imb_diag = engine.imbalance_diag
    i0 = _imbalance_norm(state.imbalance_norm)
    coll_idx = collective_index_a(cfg) if with_fisher else None

    ns = np.arange(cycles + 1)
    imb = np.empty(cycles + 1)
    qfi = np.zeros(cycles + 1)
    cfi_c = np.zeros(cycles + 1)
    cfi_m = np.zeros(cycles + 1)
    imb[0] = 1.0
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
        p = np.abs(state.amplitudes) ** 2
        dp = 2.0 * np.real(np.conj(state.amplitudes) * state.tangent) \
            if with_fisher else None
        imb[n], cfi_c[n], cfi_m[n] = _readout(p, dp, imb_diag, i0, coll_idx)
        if with_fisher:
            qfi[n] = qfi_pure(state)
    return StroboscopicTrace(ns, imb, qfi, cfi_c, cfi_m,
                             probe=cfg, field=field,
                             init=init or InitConfig(), gamma=0.0)


def time_average(trace: StroboscopicTrace, N: int) -> dict[str, float]:
    """(1/N) sum_{n=1}^{N} F(n) for each Fisher quantity."""
    if N < 1:
        raise ValueError(f"averaging window must be >= 1, got {N}")
    if trace.cycles < N:
        raise ValueError(f"trace holds {trace.cycles} cycles, needs >= {N}")
    sel = slice(1, N + 1)
    return {
        "qfi": float(trace.qfi[sel].mean()),
        "cfi_computational": float(trace.cfi_computational[sel].mean()),
        "cfi_collective": float(trace.cfi_collective[sel].mean()),
    }


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
        series = getattr(trace, name)
        vals = [series[(i0 - 1) * dn + 1: i0 * dn + 1].mean() for i0 in i]
        out[name] = np.array(vals)
    return out


def power_fit(x, y) -> FitResult:
    """Least-squares straight line on (ln x, ln y); exponent = slope."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError(f"power_fit needs at least 3 points, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power_fit requires strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(float(slope), float(np.exp(intercept)), float(r2),
                     points=tuple(zip(x.tolist(), y.tolist())))


def golden_section_peak(fn, grid: np.ndarray, rel_width: float = 1e-3) -> float:
    """Argmax of a unimodal function: coarse grid argmax, then golden-section
    refinement (in log space) of the bracketing interval.

    Warns with BoundaryPeakWarning when the coarse maximum sits on the grid
    edge, in which case the edge value is returned as-is.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.array([fn(g) for g in grid])
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
    while b - a > rel_width:
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
                    h_grid: np.ndarray | None = None) -> float:
    """Field amplitude h_a^max at which QFI(n) peaks (the DTC collapse point)."""
    if h_grid is None:
        h_grid = np.logspace(-5, 0, 40)

    def peak_qfi(h: float) -> float:
        fld = FieldConfig(h_a=h, delta_f=field_template.delta_f,
                          eta=field_template.eta)
        trace = stroboscopic_trace(cfg, fld, cycles=n)
        return float(trace.qfi[n])

    return golden_section_peak(peak_qfi, h_grid)
