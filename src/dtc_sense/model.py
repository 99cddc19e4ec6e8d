"""Two-chain spin model: configurations, basis encoding, observables, initial states.

Two spin-1/2 chains (a = probe, b = reference) of length L each.  Qubits are
interleaved so that the pair (a_j, b_j) occupies adjacent bit positions:

    q(a, j) = 2(j-1),   q(b, j) = 2(j-1) + 1,   j = 1..L

Bit value 0 encodes |up> (sigma^z eigenvalue +1), bit 1 encodes |down>, and a
basis state is the integer sum(bit_q * 2^q) with qubit 0 least significant.
Basis integer 0 is therefore the fully polarized all-up configuration.

All observables used downstream are diagonal in this basis and are represented
as plain real weight vectors of length 2^{2L}.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

#: Kinds accepted by :func:`observable_diagonal`, each mapping site j to the
#: weights (on sigma^z_{a,j}, on sigma^z_{b,j}).
OBSERVABLE_KINDS = {
    "gradient-z-a": lambda j: (j, 0),         # sum_j j * sigma^z_{a,j}
    "gradient-z-b": lambda j: (0, j),         # sum_j j * sigma^z_{b,j}
    "collective-z-a": lambda j: (1, 0),       # sum_j sigma^z_{a,j}
    "collective-z-b": lambda j: (0, 1),
    "imbalance-numerator": lambda j: (1, -1),  # sum_j (sigma^z_{a,j} - sigma^z_{b,j})
}


@dataclass(frozen=True)
class ProbeConfig:
    """Static model parameters of the binary-quench probe.

    The inter-chain exchange coupling and the two half-period durations are
    derived quantities: ``jab = pi * jz * (1 - epsilon)`` and
    ``t1 = t2 = 1/(2 jz)``, so that a perfect quench (epsilon = 0) performs a
    full pair exchange each cycle.
    """

    length: int
    epsilon: float = 0.1
    jz: float = 1.0

    def __post_init__(self):
        if self.length < 1 or self.length != int(self.length):
            raise ConfigError(f"length must be a positive integer, got {self.length}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.jz <= 0:
            raise ConfigError(f"jz must be positive, got {self.jz}")

    @property
    def jab(self) -> float:
        return np.pi * self.jz * (1.0 - self.epsilon)

    @property
    def t1(self) -> float:
        return 1.0 / (2.0 * self.jz)

    @property
    def t2(self) -> float:
        return 1.0 / (2.0 * self.jz)

    @property
    def period(self) -> float:
        return self.t1 + self.t2

    @property
    def dim(self) -> int:
        return 1 << (2 * self.length)


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
        if self.h_a < 0:
            raise ConfigError(f"h_a must be nonnegative, got {self.h_a}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta must lie in [0, 1), got {self.eta}")
        if self.delta_f <= -1.0:
            raise ConfigError(f"delta_f must exceed -1, got {self.delta_f}")


@dataclass(frozen=True)
class InitConfig:
    """Initial-state preparation: a uniform single-site rotation by `tilt`.

    tilt = 0 prepares the reference product state |up...up>_a |down...down>_b.
    """

    tilt: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.tilt <= np.pi / 4:
            raise ConfigError(f"tilt must lie in [0, pi/4], got {self.tilt}")


@dataclass
class PureState:
    """Dense statevector over the 2^{2L} two-chain Hilbert space.

    `tangent` (optional) carries the derivative of the amplitudes with
    respect to the field amplitude h_a, co-propagated by the Floquet engine.
    `imbalance_norm` is the imbalance expectation of the run's initial state,
    used to self-normalize the imbalance trace.
    """

    amplitudes: np.ndarray
    tangent: np.ndarray | None = None
    imbalance_norm: float = field(default=0.0)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "PureState":
        return PureState(
            self.amplitudes.copy(),
            None if self.tangent is None else self.tangent.copy(),
            self.imbalance_norm,
        )


@functools.lru_cache(maxsize=None)
def spin_table(length: int) -> np.ndarray:
    """sigma^z eigenvalues (+1 up, -1 down) of every qubit over all basis
    integers: int8 array of shape (2L, 4^L), row q = 2(j-1) for a_j and
    2(j-1)+1 for b_j.  Built once per length and read-only."""
    z = np.arange(1 << (2 * length))
    table = np.empty((2 * length, z.size), dtype=np.int8)
    for q in range(2 * length):
        table[q] = 1 - 2 * ((z >> q) & 1)
    table.flags.writeable = False
    return table


def observable_diagonal(cfg: ProbeConfig, kind: str) -> np.ndarray:
    """Diagonal weight vector d(z) of a named observable over basis integers."""
    if kind not in OBSERVABLE_KINDS:
        raise ConfigError(f"unknown observable kind {kind!r}")
    spins = spin_table(cfg.length)
    d = np.zeros(cfg.dim)
    for j in range(1, cfg.length + 1):
        w_a, w_b = OBSERVABLE_KINDS[kind](j)
        d += w_a * spins[2 * j - 2] + w_b * spins[2 * j - 1]
    return d


def chain_interaction_diagonal(cfg: ProbeConfig) -> np.ndarray:
    """Eigenvalues of the intra-chain Hamiltonian H_a + H_b (open boundaries).

    H_a + H_b = -jz * sum_{mu in {a,b}} sum_{j=1}^{L-1} sigma^z_{mu,j} sigma^z_{mu,j+1},
    diagonal in the computational basis.
    """
    spins = spin_table(cfg.length)
    e = np.zeros(cfg.dim)
    for q in range(2 * cfg.length - 2):
        e -= cfg.jz * (spins[q] * spins[q + 2])
    return e


def total_magnetization_diagonal(cfg: ProbeConfig) -> np.ndarray:
    """Total sigma^z over all 2L qubits (conserved by the full dynamics)."""
    return spin_table(cfg.length).sum(axis=0).astype(float)


def collective_index_a(cfg: ProbeConfig) -> np.ndarray:
    """Number of up a-spins per basis integer (0..L).

    Indexes the eigenvalue m = 2*k - L of the collective observable
    sum_j sigma^z_{a,j}; used to coarse-grain probability distributions.
    """
    return (cfg.length + spin_table(cfg.length)[0::2].sum(axis=0)) // 2


def build_initial_state(cfg: ProbeConfig, init: InitConfig | None = None) -> PureState:
    """Product state with every a-site rotated toward down and every b-site
    toward up by the same angle `tilt`:

        (cos t |up> + sin t |down>)_a  x  (-sin t |up> + cos t |down>)_b

    At tilt = 0 this is |up...up>_a |down...down>_b, the state whose imbalance
    normalizes the subharmonic-response trace.
    """
    init = init or InitConfig()
    t = init.tilt
    amp_a = np.array([np.cos(t), np.sin(t)])
    amp_b = np.array([-np.sin(t), np.cos(t)])
    psi = np.array([1.0])
    # qubit q is bit q of the basis integer, so later (more significant)
    # factors must be kron'ed on the left
    for q in range(2 * cfg.length):
        psi = np.kron(amp_a if q % 2 == 0 else amp_b, psi)
    psi = psi.astype(np.complex128)
    imb = observable_diagonal(cfg, "imbalance-numerator")
    i0 = float(imb @ np.abs(psi) ** 2)
    return PureState(psi, tangent=None, imbalance_norm=i0)
