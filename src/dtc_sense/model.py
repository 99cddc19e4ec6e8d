"""Two-chain spin model: configurations, basis encoding, observables, initial states.

Two spin-1/2 chains (a = probe, b = reference) of length L each, grouped into
L pairs (a_j, b_j).  A basis state is a string of L local pair states, one
base-d digit per pair with pair 1 least significant, where d = pair_dim is
the local dimension the engines run at:

  d = 4  the full pair space.  Local index bit_a + 2 bit_b, so the qubits
         interleave as q(a, j) = 2(j-1), q(b, j) = 2(j-1) + 1 and the basis
         integer is sum(bit_q * 2^q) over the 2L qubits.
  d = 2  the one-up-per-pair sector span{|a up, b down>, |a down, b up>},
         which the dynamics never leave.  Each pair is one qubit tau_j with
         local 0 = tau up = (a up, b down) = full local 2, and local 1 =
         tau down = (a down, b up) = full local 1.  A tilt-0 initial state
         lies in the sector, so its runs need d^L = 2^L amplitudes, not 4^L.

Bit value 0 encodes |up> (sigma^z eigenvalue +1), bit 1 encodes |down>.  Every
observable used downstream is diagonal in this basis and is built from
pair-local pieces: the sigma^z values of a_j and b_j over the d local states
(pair_spins), summed one base-d digit at a time (pair_sum), so the same code
serves both d: at d = 2 sigma^z_{a,j} is tau_j and sigma^z_{b,j} is -tau_j.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ResourceLimitError

#: Full-pair local indices (bit_a + 2 bit_b) kept at each local dimension d.
PAIR_STATES = {4: (0, 1, 2, 3), 2: (2, 1)}

#: Largest state the gates admit: d^L amplitudes of a state vector (4^8)
#: and d^L rows of a density matrix (4^5).
PURE_STATE_MAX_DIM = 4 ** 8
MIXED_STATE_MAX_DIM = 4 ** 5

@dataclass(frozen=True)
class ProbeConfig:
    """Static model parameters of the binary-quench probe.

    Energies are in units of the intra-chain coupling Jz and times in units
    of 1/Jz.  The inter-chain exchange coupling and the two half-period
    durations are derived quantities: ``jab = pi * (1 - epsilon)`` and
    ``t1 = t2 = 1/2``, so that a perfect quench (epsilon = 0) performs a
    full pair exchange each cycle.  ``pair_dim`` is the local dimension d of
    the simulated pair space (module docstring); the trace builders set it
    with :func:`engine_probe`.
    """

    length: int
    epsilon: float = 0.1
    pair_dim: int = 4
    t1 = t2 = 0.5   # half-period durations (class constants, not fields)
    period = 1.0

    def __post_init__(self):
        if not isinstance(self.length, (int, np.integer)) \
                or isinstance(self.length, bool) or self.length < 1:
            raise ConfigError(f"length must be a positive integer, got {self.length}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.pair_dim not in PAIR_STATES:
            raise ConfigError(f"pair_dim must be 2 or 4, got {self.pair_dim}")

    @property
    def jab(self) -> float:
        return np.pi * (1.0 - self.epsilon)

    @property
    def dim(self) -> int:
        return self.pair_dim ** self.length


@dataclass(frozen=True)
class FieldConfig:
    """Periodic gradient-field parameters.

    delta_f is the fractional frequency offset of the drive (0 = resonant with
    half the subharmonic response period); eta is the crosstalk fraction of
    the gradient leaking onto the reference chain.
    """

    h_a: float = 0.0
    delta_f: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.h_a < np.inf:
            raise ConfigError(f"h_a must be finite and >= 0, got {self.h_a}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta must lie in [0, 1), got {self.eta}")
        if not -1.0 < self.delta_f < np.inf:
            raise ConfigError(
                f"delta_f must be finite and exceed -1, got {self.delta_f}")


@dataclass(frozen=True)
class InitConfig:
    """Initial-state preparation: a uniform single-site rotation by `tilt`.

    tilt = 0 prepares the reference product state |up...up>_a |down...down>_b.
    """

    tilt: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.tilt <= np.pi / 4:
            raise ConfigError(f"tilt must lie in [0, pi/4], got {self.tilt}")


@dataclass(eq=False)
class EngineState:
    """The stack x either engine runs: B fields' states x[:, 0], psi of shape
    d^L or rho of shape (d^L, d^L), and their h_a-tangents x[:, 1] (psi's
    up to a phase term i a psi; floquet and lindblad docstrings)."""

    x: np.ndarray
    tangent = property(lambda self: self.x[:, 1])


def engine_probe(cfg: ProbeConfig, init: InitConfig | None) -> ProbeConfig:
    """`cfg` at the pair dimension the engines run from `init`: d = 2 (the
    one-up-per-pair sector) at tilt 0, d = 4 otherwise."""
    tilt = (init or InitConfig()).tilt
    return replace(cfg, pair_dim=2 if tilt == 0.0 else 4)


def batch_size(cfg: ProbeConfig, mixed: bool) -> int:
    """Resource gate and batch size at `cfg` (an engine_probe result): how
    many states one engine batch holds, as many as fill PURE_STATE_MAX_DIM
    amplitudes, or one MIXED_STATE_MAX_DIM-row density matrix if `mixed`.
    ResourceLimitError if one state alone exceeds its limit."""
    limit, p = (MIXED_STATE_MAX_DIM, 2) if mixed else (PURE_STATE_MAX_DIM, 1)
    if cfg.dim > limit:
        kind = "density-matrix" if mixed else "pure-state"
        raise ResourceLimitError(
            f"{kind} runs are gated to {limit} basis states; L={cfg.length} "
            f"at pair dimension {cfg.pair_dim} needs {cfg.dim}")
    return limit ** p // cfg.dim ** p


def pair_spins(pair_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma^z eigenvalues (+1 up, -1 down) of a_j and of b_j over the d
    local states of one pair: two int arrays of length d = pair_dim."""
    k = np.array(PAIR_STATES[pair_dim])
    return 1 - 2 * (k & 1), 1 - 2 * (k >> 1)


def pair_sum(local: np.ndarray, op: np.ufunc = np.add) -> np.ndarray:
    """op over j of local[j-1, k_j] for all d^L basis integers, where k_j is
    the base-d digit of pair j (pair 1 least significant): `local` has shape
    (L, d), the result its dtype.  The diagonals sum (op = np.add), and
    build_initial_state multiplies (np.multiply)."""
    out = local[0]
    for v in local[1:]:
        out = op.outer(v, out).reshape(-1)
    return out


def field_weights(cfg: ProbeConfig, eta: float) -> np.ndarray:
    """j (sigma^z_{a,j} + eta sigma^z_{b,j}) over the d local states of each
    pair j: the field term of both half-periods, shape (L, d), row j-1 for
    pair j.  pair_sum of it is the diagonal of the field generator
    G_a + eta G_b."""
    sa, sb = pair_spins(cfg.pair_dim)
    return np.arange(1.0, cfg.length + 1)[:, None] * (sa + eta * sb)


def observable_diagonal(cfg: ProbeConfig) -> np.ndarray:
    """Diagonal of the imbalance numerator sum_j (sigma^z_{a,j} -
    sigma^z_{b,j}) over basis integers."""
    sa, sb = pair_spins(cfg.pair_dim)
    return pair_sum(np.tile(sa - sb, (cfg.length, 1)).astype(float))


def chain_interaction_diagonal(cfg: ProbeConfig) -> np.ndarray:
    """Eigenvalues of the intra-chain Hamiltonian H_a + H_b (open boundaries).

    H_a + H_b = -sum_{mu in {a,b}} sum_{j=1}^{L-1} sigma^z_{mu,j} sigma^z_{mu,j+1},
    diagonal in the computational basis: one d x d bond term per (j, j+1),
    added on the (d,)*L view of the basis, whose last axis is pair 1.
    """
    d, L = cfg.pair_dim, cfg.length
    sa, sb = pair_spins(d)
    bond = np.outer(sa, sa) + np.outer(sb, sb)
    e = np.zeros((d,) * L)
    for j in range(L - 1):
        e -= bond.reshape((d, d) + (1,) * j)
    return e.reshape(-1)


def collective_index_a(cfg: ProbeConfig) -> np.ndarray:
    """Number of up a-spins per basis integer (0..L).

    Indexes the eigenvalue m = 2*k - L of the collective observable
    sum_j sigma^z_{a,j}; used to coarse-grain probability distributions.
    """
    up = (1 + pair_spins(cfg.pair_dim)[0]) // 2
    return pair_sum(np.tile(up, (cfg.length, 1)))


def build_initial_state(cfg: ProbeConfig,
                        init: InitConfig | None = None) -> np.ndarray:
    """The d^L amplitudes of the product state with every a-site rotated
    toward down and every b-site toward up by the same angle `tilt`:

        (cos t |up> + sin t |down>)_a  x  (-sin t |up> + cos t |down>)_b

    At tilt = 0 this is |up...up>_a |down...down>_b, the state whose imbalance
    normalizes the subharmonic-response trace; at d = 2 it is basis state 0
    (every tau up), and only tilt 0 lies in that sector.  A pair's amplitude
    at full local index bit_a + 2 bit_b (b above a) is outer(amp_b, amp_a),
    and pair_sum with op = np.multiply takes their product over the pairs.
    """
    init = init or InitConfig()
    t = init.tilt
    if cfg.pair_dim == 2 and t != 0.0:
        raise ConfigError(f"tilt {t} leaves the one-up-per-pair sector")
    amp_a = np.array([np.cos(t), np.sin(t)])
    amp_b = np.array([-np.sin(t), np.cos(t)])
    pair = np.outer(amp_b, amp_a).reshape(-1)[list(PAIR_STATES[cfg.pair_dim])]
    local = np.tile(pair.astype(np.complex128), (cfg.length, 1))
    return pair_sum(local, np.multiply)
