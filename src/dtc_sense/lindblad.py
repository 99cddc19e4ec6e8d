"""Density-matrix evolution under the piecewise-constant Lindblad equation.

Within each half-period the generator is constant: the half's Hamiltonian
(with the accumulated field phase spread over the half as a constant
amplitude Theta/t_half, so the Gamma = 0 limit reproduces the unitary engine
exactly) plus local sigma^z dephasing at rate Gamma on every site of both
chains.  In the computational basis the dephasing superoperator is
elementwise: (sum_j sigma^z_j rho sigma^z_j) - 2L rho has matrix elements
-2 * hamming(z XOR z') * rho_{zz'}.

Every term of each half's generator is pair-local, and the terms commute, so
each half has an exact channel built from the unitary engine's pieces:

  1. diagonal half: rho_{zz'} <- exp(-i (phi_z - phi_z') - 2 Gamma t1 hamming(z, z')) rho_{zz'},
     with phi = t1 E_chain + Theta_1 (G_a + eta G_b) the pure engine's phases;
  2. exchange half: L commuting 16x16 pair superoperators
     S_j = exp(A_j),  A_j = -i (M_j x 1 - 1 x M_j^T) - 2 Gamma t2 diag(hamming_4),
     where M_j is the pure engine's pair-gate exponent (floquet._pair_exponent)
     and hamming_4 the Hamming distance over the pair's two qubits.

The derivative d rho / d h_a is co-propagated by the product rule.  The
exchange-half factor dS_j/dTheta is the top-right block of
exp([[A_j, E_j], [0, A_j]]) with E_j = dA_j/dTheta (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 30, 1639 (2009)), computed with the same 32x32
exponential as S_j.  There is no time stepping and no finite difference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .floquet import FloquetEngine, _pair_exponent, _theta_unit, theta_half
from .metrology import (
    StroboscopicTrace,
    _imbalance_norm,
    _readout,
    point_average,
    qfi_mixed,
)
from .model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    build_initial_state,
    collective_index_a,
    spin_table,
)

#: largest chain length the density-matrix path accepts
LINDBLAD_MAX_L = 5
_POSITIVITY_HARD = -1e-6
_TRACE_TOL = 1e-6
_TAYLOR_DEGREE = 16


@dataclass
class MixedState:
    """Dense density matrix with its cycle counter and dephasing rate.

    `tangent` (optional) carries d rho / d h_a, co-propagated by the Lindblad
    engine as PureState.tangent is by the unitary one.
    """

    rho: np.ndarray
    cycle: int = 0
    gamma: float = 0.0
    tangent: np.ndarray | None = None

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])

    def copy(self) -> "MixedState":
        return MixedState(self.rho.copy(), self.cycle, self.gamma,
                          None if self.tangent is None else self.tangent.copy())


def hamming_distance_matrix(cfg: ProbeConfig) -> np.ndarray:
    """hamming(z XOR z') over all basis-integer pairs (small ints as float):
    the number of spin-table rows on which z and z' differ."""
    d = np.zeros((cfg.dim, cfg.dim))
    for s in spin_table(cfg.length):
        d += s[:, None] != s[None, :]
    return d


def _expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential: Taylor polynomial of degree 16 (Horner form) on X
    scaled to 1-norm <= 1/2, where its truncation error is below 1e-20, then
    squared back."""
    norm = np.abs(X).sum(axis=0).max()
    s = int(np.ceil(np.log2(max(norm, 0.5) / 0.5)))
    X = X / 2.0 ** s
    eye = np.eye(X.shape[0])
    E = eye.astype(X.dtype)
    for k in range(_TAYLOR_DEGREE, 0, -1):
        E = eye + (X @ E) / k
    for _ in range(s):
        E = E @ E
    return E


def _pair_superoperator(site: int, theta: float, eta: float, angle: float,
                        deph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact exchange-half channel S on the (a_site, b_site) pair and dS/dTheta.

    Both act on the row-major vec of the pair's 4x4 block of rho;
    `deph` = 2 Gamma t2 hamming_4 in the same layout.
    """
    eye = np.eye(4)
    M = _pair_exponent(site, theta, eta, angle)
    dM = _pair_exponent(site, 1.0, eta, 0.0)  # the exponent is linear in Theta
    block = np.zeros((32, 32), dtype=complex)
    block[:16, :16] = block[16:, 16:] = (
        -1j * (np.kron(M, eye) - np.kron(eye, M.T)) - np.diag(deph))
    block[:16, 16:] = -1j * (np.kron(dM, eye) - np.kron(eye, dM.T))
    F = _expm(block)
    return F[:16, :16], F[:16, 16:]


def _apply_pair_super(S: np.ndarray, rho: np.ndarray, site: int,
                      L: int) -> np.ndarray:
    """Apply a 16x16 pair superoperator to the (a_site, b_site) bit pair of
    both indices of a density matrix."""
    blocks = 4 ** (L - site)
    inner = 4 ** (site - 1)
    r = rho.reshape(blocks, 4, inner, blocks, 4, inner)
    out = np.tensordot(S.reshape(4, 4, 4, 4), r, axes=([2, 3], [1, 4]))
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(rho.shape)


class LindbladEngine:
    """Steps a density matrix (and an attached d rho / d h_a) cycle by cycle
    through the exact channel of each half-period."""

    # one exact step per half-period; perfbench/traced_cli.py reads this to
    # count the work of apply_cycle
    substeps = 1

    def __init__(self, cfg: ProbeConfig, field: FieldConfig, gamma: float):
        self.cfg = cfg
        self.field = field
        self.gamma = gamma
        self.unitary = FloquetEngine(cfg, field)
        self.decay = np.exp(-2.0 * gamma * cfg.t1 * hamming_distance_matrix(cfg))
        # a single pair: Hamming distance over its two qubits
        ham4 = hamming_distance_matrix(ProbeConfig(length=1))
        self._pair_deph = 2.0 * gamma * cfg.t2 * ham4.reshape(-1)
        self._super_cache: dict[tuple[int, float],
                                tuple[np.ndarray, np.ndarray]] = {}

    def pair_superoperators(self, n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(site, S, dS/dTheta) for the exchange half of cycle n."""
        th = theta_half(n, 2, self.field, self.cfg)
        angle = self.cfg.t2 * self.cfg.jab
        out = []
        for site in range(1, self.cfg.length + 1):
            key = (site, th)
            pair = self._super_cache.get(key)
            if pair is None:
                pair = _pair_superoperator(site, th, self.field.eta, angle,
                                           self._pair_deph)
                self._super_cache[key] = pair
            out.append((site, *pair))
        return out

    def apply_cycle(self, state: MixedState, n: int) -> MixedState:
        L = self.cfg.length
        diag = self.unitary.diagonal_phase(n)
        f = np.exp(-1j * diag.phases)
        m = np.outer(f, f.conj()) * self.decay
        rho = m * state.rho
        tan = state.tangent
        if tan is not None:
            g = diag.gradient
            tan = m * tan - (1j * diag.dtheta_dh) * (g[:, None] * rho - rho * g)
        dth = _theta_unit(n, 2, self.field, self.cfg)
        for site, S, dS in self.pair_superoperators(n):
            new_rho = _apply_pair_super(S, rho, site, L)
            if tan is not None:
                tan = (_apply_pair_super(S, tan, site, L)
                       + dth * _apply_pair_super(dS, rho, site, L))
            rho = new_rho
        state.rho = rho
        state.tangent = tan
        state.cycle = n
        return state


def initial_mixed_state(cfg: ProbeConfig, init: InitConfig | None = None,
                        gamma: float = 0.0) -> MixedState:
    psi = build_initial_state(cfg, init).amplitudes
    return MixedState(np.outer(psi, psi.conj()), cycle=0, gamma=gamma)


def evolve_lindblad(rho0: MixedState, cycles: int, cfg: ProbeConfig,
                    field: FieldConfig, gamma: float) -> list[MixedState]:
    """Evolve for `cycles` periods, returning a copy of the state after every
    cycle.

    A trace drift beyond 1e-6 or an eigenvalue below -1e-6 raises
    NumericalError: the channel is exact, so either means lost precision.
    """
    engine = LindbladEngine(cfg, field, gamma)
    state = rho0.copy()
    state.gamma = gamma
    trajectory = []
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
        tr = state.trace()
        if abs(tr - 1.0) > _TRACE_TOL:
            raise NumericalError(f"trace drifted to {tr} at cycle {n}")
        lam = state.min_eigenvalue()
        if lam < _POSITIVITY_HARD:
            raise NumericalError(
                f"rho has eigenvalue {lam:g} below {_POSITIVITY_HARD} at "
                f"cycle {n}")
        trajectory.append(state.copy())
    return trajectory


def noisy_fisher(cfg: ProbeConfig, field: FieldConfig, gamma: float,
                 cycles: int, dn: int, K: int,
                 init: InitConfig | None = None) -> dict:
    """Mixed-state QFI and CFIs per cycle under dephasing, plus their
    point averages.

    One LindbladEngine evolves rho together with its exact h_a-derivative
    d rho / d h_a (the tangent, co-propagated through each half's exact
    channel), so no finite-difference twins are needed and h_a = 0 needs no
    special case.  The mixed QFI is the spectral formula on (rho, d rho),
    which raises NumericalError on trace drift or negative eigenvalues.
    Returns the per-cycle trace and the point-averaged series.
    """
    if cfg.length > LINDBLAD_MAX_L:
        raise NumericalError(
            f"density-matrix evolution is gated to L <= {LINDBLAD_MAX_L}, "
            f"got {cfg.length}")
    if K * dn > cycles:
        raise ValueError(f"K*dn = {K * dn} exceeds cycle budget {cycles}")
    engine = LindbladEngine(cfg, field, gamma)
    state = initial_mixed_state(cfg, init, gamma)
    state.tangent = np.zeros_like(state.rho)
    imb_diag = engine.unitary.imbalance_diag
    coll_idx = collective_index_a(cfg)
    i0 = _imbalance_norm(float(imb_diag @ np.diag(state.rho).real))
    imb = np.empty(cycles + 1)
    qfi = np.zeros(cycles + 1)
    cfi_c = np.zeros(cycles + 1)
    cfi_m = np.zeros(cycles + 1)
    imb[0] = 1.0
    for n in range(1, cycles + 1):
        engine.apply_cycle(state, n)
        p = np.diag(state.rho).real
        dp = np.diag(state.tangent).real
        imb[n], cfi_c[n], cfi_m[n] = _readout(p, dp, imb_diag, i0, coll_idx)
        qfi[n] = qfi_mixed(state.rho, state.tangent)
    trace = StroboscopicTrace(np.arange(cycles + 1), imb, qfi, cfi_c, cfi_m,
                              probe=cfg, field=field,
                              init=init or InitConfig(), gamma=gamma)
    return {"trace": trace, "point_averaged": point_average(trace, dn, K)}
