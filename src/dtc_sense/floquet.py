"""Per-cycle Floquet propagator for the binary-quench two-chain probe.

One drive cycle of period T = t1 + t2 factorizes into

  1. a diagonal half-period  exp(-i [t1 * H_chain + Theta_1 * (G_a + eta G_b)])
     (intra-chain ZZ couplings plus the accumulated gradient-field phase), then
  2. L disjoint pair gates   exp(-i [t2 * J_ab * hop_j + Theta_2 * j * (s^az_j + eta s^bz_j)])
     acting on each (a_j, b_j) pair.

The engine runs at the pair dimension d of its ProbeConfig (model docstring):
the diagonals are sums of pair and bond terms, and each pair gate is the 4x4
exponent restricted to the d kept local states, so it is 4x4 on the full
space and 2x2 in the one-up-per-pair sector, where it reads
exp(-i [t2 J_ab tau^x_j + Theta_2 j (1 - eta) tau^z_j]).

The sinusoidal drive enters only through its per-half-period time integral
Theta (the square-pulse/accumulated-phase approximation); there is no
sub-half-period time stepping.  Theta = h_a * Theta_unit is linear in h_a.

Batched fields.  One engine propagates B fields that share (delta_f, eta) and
differ in h_a; a single field is B = 1.  Their states are one complex array
of shape (B, c, d^L): c = 2 stacks psi and its h_a-derivative d psi (the
tangent), c = 1 holds psi alone.  The pair gates of all L pairs and B fields
for one Theta_unit come from one batched eigh, with each gate's derivative
from the eigendecomposition divided-difference (Daleckii-Krein) formula; a
resonant drive has two values of Theta_unit, so its gates are built twice.

Fused block gate.  Each pair acts on (psi, d psi) through the 2d x 2d block
gate [[U, 0], [dU, U]] (new d psi = dU psi + U d psi): one matmul per pair
for all fields.  Pairs run from L down to 1, each as the most significant
digit of the basis index: the matmul contracts the (c, top digit) axis and
its result moves that digit to the least significant place, so after L
pairs the digits are back in order, at one matmul and one copy per pair.
This loop, apply_pair_gates, also runs the Lindblad engine's exchange half
at local dimension d^2; LindbladEngine subclasses FloquetEngine and reuses
its exponents (_exponents) and pair-block cache (lindblad docstring).

Horizontal gauge.  The exact d psi / d h_a gathers a phase-derivative part
i a psi (a real, growing linearly in n: |a| = 334 at L = 6 after 50
resonant cycles, where the QFI is 216) that no readout sees: the QFI and
dp = 2 Re(psi* d psi) do not depend on it.  Left in, it makes the QFI a small
difference of two large numbers and scales the rounding noise of every
pass.  So each cycle ends by removing i Im<psi|d psi> psi from the tangent,
which is then d psi / d h_a up to such a phase term.
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
    """First half-period factor exp(-i phases), one row of phases per field
    (shape (B, d^L)); `gradient`, the diagonal of the field generator
    G_a + eta G_b, and `dtheta_dh` are shared by the fields."""

    phases: np.ndarray
    gradient: np.ndarray
    dtheta_dh: float


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


def cached_pair_gates(cache: dict, unit: float, build) -> np.ndarray:
    """build(unit), cached for the two latest Theta units: both units of a
    resonant drive."""
    gates = cache.get(unit)
    if gates is None:
        if len(cache) == 2:
            del cache[next(iter(cache))]
        gates = cache[unit] = build(unit)
    return gates


def apply_pair_gates(X: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """The (B, c, D^L) stacks X, one base-D digit per pair, after the pair
    blocks `gates` (L, B, 2D, 2D) of the module docstring; c = 1 uses only
    their top-left D x D gate."""
    B, c = X.shape[:2]
    k = c * gates.shape[-1] // 2
    for gate in gates[::-1, :, :k, :k]:
        X = (gate @ X.reshape(B, k, -1)).reshape(B, c, k // c, -1) \
            .swapaxes(2, 3)
    return X.reshape(B, c, -1)


class FloquetEngine:
    """Caches the diagonal vectors and pair gates for repeated cycle
    application to one FieldConfig, or a list of them sharing (delta_f, eta)
    (module docstring).  Off resonance each cycle builds L*B fresh d x d
    eigendecompositions, small next to the statevector work.
    """

    def __init__(self, cfg: ProbeConfig,
                 fields: FieldConfig | list[FieldConfig]):
        self.fields = (fields,) if isinstance(fields, FieldConfig) \
            else tuple(fields)
        shared = {(f.delta_f, f.eta) for f in self.fields}
        if len(shared) != 1:
            raise ValueError("a field batch needs at least one field and one "
                             f"shared (delta_f, eta); got {sorted(shared)}")
        self.cfg = cfg
        self.h_a = np.array([f.h_a for f in self.fields])
        self.e_chain = chain_interaction_diagonal(cfg)
        g_a = observable_diagonal(cfg, "gradient-z-a")
        g_b = observable_diagonal(cfg, "gradient-z-b")
        self.gradient = g_a + self.fields[0].eta * g_b
        self.imbalance_diag = observable_diagonal(cfg, "imbalance-numerator")
        self._gate_cache: dict[float, np.ndarray] = {}

    def diagonal_phase(self, n: int) -> DiagonalPhase:
        unit = _theta_unit(n, 1, self.fields[0], self.cfg)
        phases = (self.cfg.t1 * self.e_chain
                  + (self.h_a * unit)[:, None] * self.gradient)
        return DiagonalPhase(phases, self.gradient, unit)

    def pair_gates(self, n: int) -> np.ndarray:
        """Block gates [[U, 0], [dU/dh_a, U]] of the exchange half of cycle
        n: shape (L, B, 2d, 2d), row j-1 for the (a_j, b_j) pair."""
        unit = _theta_unit(n, 2, self.fields[0], self.cfg)
        return cached_pair_gates(self._gate_cache, unit, self._build_gates)

    def _exponents(self, unit: float) -> tuple[np.ndarray, np.ndarray]:
        """Hermitian exponents M of the pair gates at Theta = h_a * unit and
        their derivatives dM/dTheta: shapes (L, B, d, d) and (L, 1, d, d)."""
        cfg, d = self.cfg, self.cfg.pair_dim
        eta = self.fields[0].eta
        sites = np.arange(1, cfg.length + 1)[:, None, None, None]
        # the exponent is linear in site * Theta: M = site Theta dM + M0
        dM = _pair_exponent(1, 1.0, eta, 0.0, d)
        M0 = _pair_exponent(1, 0.0, eta, cfg.t2 * cfg.jab, d)
        M = sites * (self.h_a * unit)[:, None, None] * dM + M0
        return M, sites * dM

    def _build_gates(self, unit: float) -> np.ndarray:
        d = self.cfg.pair_dim
        M, dM = self._exponents(unit)
        lam, V = np.linalg.eigh(M)
        Vt = V.swapaxes(-1, -2)
        f = np.exp(-1j * lam)
        # Frechet derivative of exp(-iM) along dM/dTheta, via
        # divided differences of the eigenvalues; the degenerate branch is
        # the derivative limit
        dlam = lam[..., :, None] - lam[..., None, :]
        deg = np.abs(dlam) < _DEGENERATE_EIG
        phi = np.where(deg, -1j * f[..., :, None],
                       (f[..., :, None] - f[..., None, :])
                       / np.where(deg, 1.0, dlam))
        gates = np.zeros(M.shape[:2] + (2 * d, 2 * d), dtype=complex)
        gates[..., :d, :d] = gates[..., d:, d:] = (V * f[..., None, :]) @ Vt
        gates[..., d:, :d] = (V @ (phi * (Vt @ dM @ V)) @ Vt) * unit
        return gates

    def apply_cycle(self, state: PureState, n: int) -> PureState:
        """Advance `state` by cycle n (in place) and return it.

        `state.amplitudes` holds one field's d^L amplitudes, or one row of
        them per field of the batch; an attached tangent of the same shape
        is co-propagated.  The diagonal half acts first, then the L pair
        gates (disjoint supports, order-independent).
        """
        cfg, B = self.cfg, len(self.fields)
        psi, tan = state.amplitudes, state.tangent
        if psi.shape[-1] != cfg.dim or psi.size != B * cfg.dim:
            raise ValueError(
                f"state of shape {psi.shape} does not match {B} field(s) at "
                f"L={cfg.length}, d={cfg.pair_dim} (expect rows of {cfg.dim})")
        X = psi[..., None, :] if tan is None else np.stack((psi, tan), axis=-2)
        c = X.shape[-2]
        diag = self.diagonal_phase(n)
        X = np.exp(-1j * diag.phases)[:, None, :] * X.reshape(B, c, cfg.dim)
        if tan is not None:
            X[:, 1] += (-1j * diag.dtheta_dh) * diag.gradient * X[:, 0]
        X = apply_pair_gates(X, self.pair_gates(n))
        if tan is not None:  # horizontal gauge (module docstring)
            X[:, 1] -= 1j * (X[:, 0].conj() * X[:, 1]).sum(-1).imag[:, None] \
                * X[:, 0]
        X = X.reshape(psi.shape[:-1] + (c, cfg.dim))
        state.amplitudes = X[..., 0, :]
        state.tangent = None if tan is None else X[..., 1, :]
        return state


def initial_state_with_tangent(cfg: ProbeConfig,
                               init: InitConfig | None = None) -> PureState:
    """The initial state with a zero h_a-tangent attached."""
    state = build_initial_state(cfg, init)
    state.tangent = np.zeros_like(state.amplitudes)
    return state
