"""Per-cycle Floquet propagator for the binary-quench two-chain probe.

One drive cycle of period T = t1 + t2 factorizes into

  1. a diagonal half-period  exp(-i [t1 * H_chain + Theta_1 * (G_a + eta G_b)])
     (intra-chain ZZ couplings plus the accumulated gradient-field phase), then
  2. L disjoint pair gates   exp(-i [t2 * J_ab * hop_j + Theta_2 * j * (s^az_j + eta s^bz_j)])
     acting on each (a_j, b_j) pair.

The engine runs at the pair dimension d of its ProbeConfig (model docstring):
the diagonals come from the d^L spin table and each pair gate is the 4x4
exponent restricted to the d kept local states, so it is 4x4 on the full
space and 2x2 in the one-up-per-pair sector, where it reads
exp(-i [t2 J_ab tau^x_j + Theta_2 j (1 - eta) tau^z_j]).

The sinusoidal drive enters only through its per-half-period time integral
Theta (the square-pulse/accumulated-phase approximation); there is no
sub-half-period time stepping.  The exact derivative of the state with
respect to the field amplitude h_a is co-propagated by the product rule,
with pair-gate derivatives from the eigendecomposition divided-difference
(Daleckii-Krein) formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PAIR_STATES,
    FieldConfig,
    InitConfig,
    ProbeConfig,
    PureState,
    build_initial_state,
    chain_interaction_diagonal,
    observable_diagonal,
)

_DEGENERATE_EIG = 1e-12


def theta_half(n: int, half: int, field: FieldConfig, cfg: ProbeConfig) -> float:
    """Accumulated field phase Theta over one half-period of cycle n.

    Theta = h_a * integral of sin(pi (1+delta_f) tau / T) over
    [(n-1)T, (n-1/2)T] (half 1) or [(n-1/2)T, nT] (half 2).  At delta_f = 0
    both halves give (-1)^{n+1} h_a / (pi jz).
    """
    if half not in (1, 2):
        raise ValueError(f"half must be 1 or 2, got {half}")
    if n < 1:
        raise ValueError(f"cycle index must be >= 1, got {n}")
    T = cfg.period
    if field.delta_f == 0.0:
        sign = 1.0 if n % 2 == 1 else -1.0
        return sign * field.h_a * T / np.pi
    w = np.pi * (1.0 + field.delta_f) / T
    a = (n - 1.0) * T if half == 1 else (n - 0.5) * T
    b = (n - 0.5) * T if half == 1 else n * T
    return field.h_a * (np.cos(w * a) - np.cos(w * b)) / w


def _theta_unit(n: int, half: int, field: FieldConfig, cfg: ProbeConfig) -> float:
    """d Theta / d h_a (Theta at unit amplitude; Theta is linear in h_a)."""
    unit = FieldConfig(h_a=1.0, delta_f=field.delta_f, eta=field.eta)
    return theta_half(n, half, unit, cfg)


@dataclass(frozen=True)
class DiagonalPhase:
    """First half-period factor exp(-i phases); `gradient` is the diagonal of
    the field generator G_a + eta G_b needed for tangent propagation."""

    phases: np.ndarray
    gradient: np.ndarray
    dtheta_dh: float


@dataclass(frozen=True)
class PairGate:
    """d x d unitary on the (a_j, b_j) pair, with its exact h_a-derivative."""

    site: int
    unitary: np.ndarray
    dunitary_dh: np.ndarray


def _pair_exponent(site: int, theta: float, eta: float, angle: float,
                   pair_dim: int) -> np.ndarray:
    """Hermitian exponent of the pair gate on the local states that
    model.PAIR_STATES keeps at `pair_dim`, out of the full local basis
    {(a up, b up), (a down, b up), (a up, b down), (a down, b down)}."""
    M = np.zeros((4, 4))
    M[0, 0] = site * theta * (1 + eta)
    M[1, 1] = site * theta * (-1 + eta)
    M[2, 2] = site * theta * (1 - eta)
    M[3, 3] = -site * theta * (1 + eta)
    M[1, 2] = M[2, 1] = angle
    local = list(PAIR_STATES[pair_dim])
    return M[local][:, local]


def _pair_gate(site: int, theta: float, dtheta_dh: float, eta: float,
               angle: float, pair_dim: int) -> PairGate:
    M = _pair_exponent(site, theta, eta, angle, pair_dim)
    lam, V = np.linalg.eigh(M)
    f = np.exp(-1j * lam)
    U = (V * f) @ V.T
    # Frechet derivative of exp(-iM) along dM/dtheta, via divided differences
    # of the eigenvalues; the degenerate branch is the derivative limit.
    dM = _pair_exponent(site, 1.0, eta, 0.0, pair_dim)  # linear in theta
    dlam = lam[:, None] - lam[None, :]
    deg = np.abs(dlam) < _DEGENERATE_EIG
    phi = (f[:, None] - f[None, :]) / np.where(deg, 1.0, dlam)
    phi[deg] = (np.broadcast_to(-1j * f[:, None], phi.shape))[deg]
    dU = V @ (phi * (V.T @ dM @ V)) @ V.T
    return PairGate(site, U, dU * dtheta_dh)


def _apply_pair(U: np.ndarray, psi: np.ndarray, site: int, L: int) -> np.ndarray:
    """Apply a d x d gate to the (a_site, b_site) pair digit of a statevector."""
    d = U.shape[0]
    blocks = d ** (L - site)
    inner = d ** (site - 1)
    return np.einsum("ij,ajb->aib", U,
                     psi.reshape(blocks, d, inner)).reshape(-1)


class FloquetEngine:
    """Caches the diagonal vectors and pair gates for repeated cycle application.

    At resonance only two field phases (+/- h_a/pi jz) ever occur, so the gate
    cache stays tiny; off resonance each cycle costs L fresh d x d
    eigendecompositions, which is negligible next to the statevector work.
    """

    def __init__(self, cfg: ProbeConfig, field: FieldConfig):
        self.cfg = cfg
        self.field = field
        self.e_chain = chain_interaction_diagonal(cfg)
        g_a = observable_diagonal(cfg, "gradient-z-a")
        g_b = observable_diagonal(cfg, "gradient-z-b")
        self.gradient = g_a + field.eta * g_b
        self.imbalance_diag = observable_diagonal(cfg, "imbalance-numerator")
        self._gate_cache: dict[tuple[int, float], PairGate] = {}

    def diagonal_phase(self, n: int) -> DiagonalPhase:
        th = theta_half(n, 1, self.field, self.cfg)
        dth = _theta_unit(n, 1, self.field, self.cfg)
        phases = self.cfg.t1 * self.e_chain + th * self.gradient
        return DiagonalPhase(phases, self.gradient, dth)

    def pair_gates(self, n: int) -> list[PairGate]:
        th = theta_half(n, 2, self.field, self.cfg)
        dth = _theta_unit(n, 2, self.field, self.cfg)
        angle = self.cfg.t2 * self.cfg.jab
        gates = []
        for site in range(1, self.cfg.length + 1):
            key = (site, th)
            gate = self._gate_cache.get(key)
            if gate is None:
                gate = _pair_gate(site, th, 1.0, self.field.eta, angle,
                                  self.cfg.pair_dim)
                self._gate_cache[key] = gate
            if dth != 1.0:
                gate = PairGate(site, gate.unitary, gate.dunitary_dh * dth)
            gates.append(gate)
        return gates

    def apply_cycle(self, state: PureState, n: int) -> PureState:
        """Advance `state` by cycle n (in place).

        The diagonal half acts first, then the L pair gates (disjoint
        supports, order-independent).  An attached tangent vector is
        co-propagated.
        """
        if state.amplitudes.shape[0] != self.cfg.dim:
            raise ValueError(
                f"state dimension {state.amplitudes.shape[0]} does not match "
                f"L={self.cfg.length}, d={self.cfg.pair_dim} "
                f"(expect {self.cfg.dim})")
        diag = self.diagonal_phase(n)
        phase = np.exp(-1j * diag.phases)
        psi = phase * state.amplitudes
        tan = state.tangent
        if tan is not None:
            tan = phase * tan + (-1j * diag.dtheta_dh) * diag.gradient * psi
        for gate in self.pair_gates(n):
            new_psi = _apply_pair(gate.unitary, psi, gate.site, self.cfg.length)
            if tan is not None:
                tan = (_apply_pair(gate.unitary, tan, gate.site, self.cfg.length)
                       + _apply_pair(gate.dunitary_dh, psi, gate.site, self.cfg.length))
            psi = new_psi
        state.amplitudes = psi
        state.tangent = tan
        return state


def initial_state_with_tangent(cfg: ProbeConfig,
                               init: InitConfig | None = None) -> PureState:
    """The initial state with a zero h_a-tangent attached."""
    state = build_initial_state(cfg, init)
    state.tangent = np.zeros_like(state.amplitudes)
    return state
