"""Per-cycle Floquet propagator for the binary-quench two-chain probe.

One drive cycle of period T = t1 + t2 factorizes into

  1. a diagonal half-period  exp(-i [t1 * H_chain + Theta_1 * sum_j w_j])
     (intra-chain ZZ couplings plus the accumulated gradient-field phase), then
  2. L disjoint pair gates   U_j = exp(-i [t2 * J_ab * hop_j + Theta_2 * w_j])
     acting on each (a_j, b_j) pair,

where w_j = j (s^az_j + eta s^bz_j) is pair j's field term, one (L, d) array
from model.field_weights for both halves.  The diagonal half is two
commuting factors: the h_a-independent chain factor exp(-i t1 H_chain),
built once per engine, and one pair factor D_j = exp(-i Theta_1 w_j) per
pair.  Each D_j is folded into its pair's gate, so a cycle is one multiply
by the chain factor and then the L gates U_j D_j.

The engine runs at the pair dimension d of its ProbeConfig (model docstring):
the chain factor is a sum of bond terms, and each gate is the 4x4 one
restricted to the d kept local states, so it is 4x4 on the full space and
2x2 in the one-up-per-pair sector, where U_j D_j reads
exp(-i [t2 J_ab tau^x_j + Theta_2 j (1 - eta) tau^z_j])
exp(-i Theta_1 j (1 - eta) tau^z_j).

The sinusoidal drive enters only through its per-half-period time integral
Theta (the square-pulse/accumulated-phase approximation); there is no
sub-half-period time stepping.  Theta = h_a * theta_units(n, delta_f).

Batched fields.  One engine propagates B fields that share (delta_f, eta) and
differ in h_a; a single field is B = 1.  Their state is one
model.EngineState, the state class of both engines, whose one complex array
x of shape (B, 2, d^L) stacks psi and its h_a-derivative d psi (the
tangent); each cycle takes x through the chain factor and the gates and
stores the result as the new x.  A resonant drive has two (Theta_1,
Theta_2) unit pairs (equal within a cycle, of opposite sign in odd and even
cycles), so its gates are built twice, and no later cycle computes an
exponential.

Closed-form gates.  The exchange couples only the local states (p, q) of
EXCHANGED; every other state gains the phase exp(-i Theta_2 w_k).  On
(p, q), M = m + delta sigma^z + c sigma^x, with m and delta the mean and
half difference of Theta_2 w_p and Theta_2 w_q and c = t2 J_ab =
pi (1 - epsilon) / 2 > 0, so U = exp(-i m) (cos r - i sin(r)/r (delta
sigma^z + c sigma^x)) with r = sqrt(delta^2 + c^2) >= c never degenerates,
and dU/dTheta_2 follows by the chain rule: one formula for d = 2 and 4.

Fused block gate.  Each pair acts on (psi, d psi) through the 2d x 2d block
gate [[U D, 0], [dU D + U dD, U D]] (new d psi = d(U D) psi + U D d psi):
one matmul per pair for all fields.  Pairs run from L down to 1, each as the
most significant digit of the basis index: the matmul contracts the
(psi or d psi, top digit) axis and its result moves that digit to the least
significant place, so after L pairs the digits are back in order, at one
matmul and one copy per pair.  This loop, apply_pair_gates, also runs the
Lindblad engine's cycle at local dimension d^2; LindbladEngine subclasses
FloquetEngine and reuses its field weights, diagonal fold and pair-block
cache (lindblad docstring).

Horizontal gauge.  The exact d psi / d h_a gathers a phase-derivative part
i a psi (a real, growing linearly in n: |a| = 334 at L = 6 after 50
resonant cycles, where the QFI is 216) that no readout sees: the QFI and
dp = 2 Re(psi* d psi) do not depend on it.  Left in, it makes the QFI a small
difference of two large numbers and scales the rounding noise of every
pass.  So each cycle ends by removing i Im<psi|d psi> psi from the tangent,
which is then d psi / d h_a up to such a phase term.
"""
from __future__ import annotations

import numpy as np

from .model import (
    PAIR_STATES,
    EngineState,
    FieldConfig,
    InitConfig,
    ProbeConfig,
    batch_size,
    build_initial_state,
    chain_interaction_diagonal,
    field_weights,
)

#: The two local states of model.PAIR_STATES, at each d, that the pair
#: exchange |a down, b up><a up, b down| + h.c. couples: full local states 1
#: and 2.  Every other local state only gains a phase in the exchange half.
EXCHANGED = {d: (k.index(1), k.index(2)) for d, k in PAIR_STATES.items()}


def theta_units(n: int, delta_f: float) -> tuple[float, float]:
    """(Theta_1, Theta_2) of cycle n per unit h_a: the integrals of
    sin(pi (1+delta_f) tau / T) over [(n-1)T, (n-1/2)T] and [(n-1/2)T, nT],
    T = ProbeConfig.period.  At delta_f = 0 both are (-1)^{n+1} T / pi."""
    if n < 1:
        raise ValueError(f"cycle index must be >= 1, got {n}")
    T = ProbeConfig.period
    if delta_f == 0.0:
        unit = (1.0 if n % 2 == 1 else -1.0) * T / np.pi
        return unit, unit
    w = np.pi * (1.0 + delta_f) / T
    c0, c1, c2 = (np.cos(w * t) for t in ((n - 1.0) * T, (n - 0.5) * T, n * T))
    return (c0 - c1) / w, (c1 - c2) / w


def apply_pair_gates(X: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """The (B, 2, D^L) stacks X, one base-D digit per pair, after the pair
    blocks `gates` (L, B, 2D, 2D) of the module docstring."""
    B, k = len(X), gates.shape[-1]
    for gate in gates[::-1]:
        X = (gate @ X.reshape(B, k, -1)).reshape(B, 2, k // 2, -1) \
            .swapaxes(2, 3)
    return X.reshape(B, 2, -1)


class FloquetEngine:
    """Caches the chain factor and the folded pair gates for repeated cycle
    application to one FieldConfig, or a list of them sharing (delta_f, eta)
    (module docstring).  Off resonance each cycle builds L*B fresh
    closed-form d x d gates and diagonal factors, small next to the
    statevector work.  It refuses a state beyond model.batch_size's gate first.
    """

    mixed = False  # whether the state is a density matrix (model.batch_size)

    def __init__(self, cfg: ProbeConfig,
                 fields: FieldConfig | list[FieldConfig]):
        batch_size(cfg, self.mixed)
        self.fields = (fields,) if isinstance(fields, FieldConfig) \
            else tuple(fields)
        shared = {(f.delta_f, f.eta) for f in self.fields}
        if len(shared) != 1:
            raise ValueError("a field batch needs at least one field and one "
                             f"shared (delta_f, eta); got {sorted(shared)}")
        self.cfg = cfg
        self.h_a = np.array([f.h_a for f in self.fields])
        self.weights = field_weights(cfg, self.fields[0].eta)
        self.chain = np.exp(-1j * cfg.t1 * chain_interaction_diagonal(cfg))
        # the diagonal half's field weights and t1 decay on the local states
        # a pair block acts on (LindbladEngine lifts both)
        self._phase_w, self._t1_decay = self.weights, 1.0
        self._gate_cache: dict[tuple[float, float], np.ndarray] = {}

    def pair_gates(self, n: int) -> np.ndarray:
        """Block gates [[U D, 0], [d(U D)/dh_a, U D]] of cycle n, the
        exchange-half gate U after the diagonal half's pair factor D: shape
        (L, B, 2d, 2d), row j-1 for the (a_j, b_j) pair.  Cached for the two
        latest (Theta_1, Theta_2) units: both of a resonant drive."""
        units = theta_units(n, self.fields[0].delta_f)
        gates = self._gate_cache.get(units)
        if gates is None:
            if len(self._gate_cache) == 2:
                del self._gate_cache[next(iter(self._gate_cache))]
            gates = self._gate_cache[units] = self._build_gates(*units)
        return gates

    def _build_gates(self, unit1: float, unit2: float) -> np.ndarray:
        """The exchange blocks at Theta_2 = h_a * unit2 with the factors
        D = exp(-i Theta_1 w) * t1 decay folded in (module docstring)."""
        blocks = self._exchange_blocks(unit2)
        dlog = -1j * unit1 * self._phase_w[:, None, :]  # dD/dh_a = dlog D
        D = np.exp(self.h_a[:, None] * dlog) * self._t1_decay
        k = D.shape[-1]
        gates = blocks * np.concatenate((D, D), axis=-1)[..., None, :]
        gates[..., k:, :k] += blocks[..., :k, :k] * (dlog * D)[..., None, :]
        return gates

    def _exchange_blocks(self, unit: float) -> np.ndarray:
        """Block gates [[U, 0], [dU/dh_a, U]] of the exchange half at
        Theta_2 = h_a * unit, in closed form (module docstring): shape
        (L, B, 2d, 2d), row j-1 for the (a_j, b_j) pair."""
        d, c = self.cfg.pair_dim, self.cfg.t2 * self.cfg.jab
        w = self.weights[:, None, :]  # dM/dTheta_2 (diagonal): (L, 1, d)
        theta = self.h_a * unit
        gates = np.zeros((len(w), len(theta), 2 * d, 2 * d), dtype=complex)
        U, dU = gates[..., :d, :d], gates[..., d:, :d]  # dU: d/dTheta_2
        k = np.arange(d)
        U[..., k, k] = np.exp(-1j * theta[:, None] * w)
        dU[..., k, k] = -1j * w * U[..., k, k]
        # the Rabi rotation on (p, q), its scalars shaped (L, B, 1, 1)
        pq = np.array(EXCHANGED[d])
        wp, wq = (w[..., i, None, None] for i in pq)
        mean, half = (wp + wq) / 2, (wp - wq) / 2  # per unit Theta_2
        theta = theta[:, None, None]
        delta = theta * half
        r = np.sqrt(delta ** 2 + c ** 2)
        cos, sinc = np.cos(r), np.sin(r) / r
        dsinc = (cos - sinc) * delta * half / r ** 2  # d(sin(r)/r)/dTheta_2
        sz, sx, eye = np.diag([1.0, -1.0]), np.eye(2)[::-1], np.eye(2)
        gen = delta * sz + c * sx
        phase = np.exp(-1j * theta * mean)
        U[..., pq[:, None], pq] = rot = phase * (cos * eye - 1j * sinc * gen)
        dU[..., pq[:, None], pq] = -1j * mean * rot + phase * (
            -sinc * delta * half * eye - 1j * (dsinc * gen + sinc * half * sz))
        gates[..., d:, d:] = U
        dU *= unit
        return gates

    def _chain_step(self, state) -> np.ndarray:
        """state.x times the chain factor, after checking that it is the
        (B, 2, ...) stack of this engine's B fields: the first step of
        either engine's cycle."""
        shape = (len(self.fields), 2) + self.chain.shape
        if state.x.shape != shape:
            raise ValueError(f"state of shape {state.x.shape} does not match "
                             f"{shape[0]} field(s) at L={self.cfg.length}, "
                             f"d={self.cfg.pair_dim} (expect {shape})")
        return self.chain * state.x

    def apply_cycle(self, state: EngineState, n: int) -> EngineState:
        """Advance `state` by cycle n (in place) and return it: the chain
        factor acts first, then the L folded pair gates (disjoint supports,
        order-independent), then the horizontal gauge."""
        X = apply_pair_gates(self._chain_step(state), self.pair_gates(n))
        X[:, 1] -= 1j * (X[:, 0].conj() * X[:, 1]).sum(-1).imag[:, None] \
            * X[:, 0]
        state.x = X
        return state

    def distribution(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|psi|^2 and its h_a-derivative 2 Re(psi* d psi) per field of the
        (B, 2, d^L) stack X: the phase term of the tangent drops out."""
        psi, tan = X[:, 0], X[:, 1]
        return np.abs(psi) ** 2, 2.0 * np.real(psi.conj() * tan)


def initial_state_with_tangent(cfg: ProbeConfig,
                               init: InitConfig | None = None) -> EngineState:
    """The initial state with a zero h_a-tangent: the B = 1 stack."""
    psi = build_initial_state(cfg, init)
    return EngineState(np.stack((psi, np.zeros_like(psi)))[None])
