"""Independent dense-matrix reference implementations.

Everything here is built the slow, obvious way — explicit Kronecker products
and scipy matrix exponentials — so the fast bitwise engine can be checked
against an implementation that shares none of its code paths.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.linalg import expm, expm_frechet

from dtc_sense.floquet import theta_units
from dtc_sense.metrology import StroboscopicTrace
from dtc_sense.model import PAIR_STATES, FieldConfig, InitConfig, ProbeConfig

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SP = 0.5 * (SX + 1j * SY)   # raising: |down> -> |up> in the bit-0-is-up encoding
SM = 0.5 * (SX - 1j * SY)
ID = np.eye(2, dtype=complex)


def embed(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Single-qubit operator on `qubit` (bit position) in the full space."""
    out = np.array([[1.0 + 0j]])
    for q in range(n_qubits):
        out = np.kron(op if q == qubit else ID, out)
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def dense_operators(cfg: ProbeConfig) -> MappingProxyType:
    """The dense chain, exchange, field and imbalance operators of `cfg`,
    read-only and cached (16 configs; an L = 5 operator is 16 MB)."""
    L, nq = cfg.length, 2 * cfg.length
    dim = 1 << nq
    h_chain = np.zeros((dim, dim), dtype=complex)
    for j in range(1, L):
        for chain in (0, 1):  # a-qubits even bits, b-qubits odd bits
            q1 = 2 * (j - 1) + chain
            q2 = 2 * j + chain
            h_chain -= embed(SZ, q1, nq) @ embed(SZ, q2, nq)
    h_exchange = np.zeros((dim, dim), dtype=complex)
    for j in range(1, L + 1):
        qa, qb = 2 * (j - 1), 2 * (j - 1) + 1
        h_exchange += cfg.jab * (embed(SP, qa, nq) @ embed(SM, qb, nq)
                                 + embed(SM, qa, nq) @ embed(SP, qb, nq))
    g_a = sum(j * embed(SZ, 2 * (j - 1), nq) for j in range(1, L + 1))
    g_b = sum(j * embed(SZ, 2 * (j - 1) + 1, nq) for j in range(1, L + 1))
    imbalance_num = sum(embed(SZ, 2 * (j - 1), nq)
                        - embed(SZ, 2 * (j - 1) + 1, nq)
                        for j in range(1, L + 1))
    ops = {"h_chain": h_chain, "h_exchange": h_exchange, "g_a": g_a,
           "g_b": g_b, "imbalance_num": imbalance_num}
    return MappingProxyType({k: _read_only(op) for k, op in ops.items()})


def dense_initial_state(cfg: ProbeConfig, init: InitConfig | None = None) -> np.ndarray:
    tilt = init.tilt if init else 0.0
    amp_a = np.array([np.cos(tilt), np.sin(tilt)], dtype=complex)
    amp_b = np.array([-np.sin(tilt), np.cos(tilt)], dtype=complex)
    psi = np.array([1.0 + 0j])
    for q in range(2 * cfg.length):
        psi = np.kron(amp_a if q % 2 == 0 else amp_b, psi)
    return psi


def dense_cycle_unitary(cfg: ProbeConfig, field: FieldConfig, n: int) -> np.ndarray:
    unit1, unit2 = theta_units(n, field.delta_f)
    return _cycle_unitary(cfg, field.eta, field.h_a * unit1,
                          field.h_a * unit2)


@lru_cache(maxsize=16)
def _cycle_unitary(cfg: ProbeConfig, eta: float, th1: float,
                   th2: float) -> np.ndarray:
    """The cycle unitary at half-period phases (th1, th2), read-only and
    cached: a resonant drive has only two such pairs per field."""
    ops = dense_operators(cfg)
    g = ops["g_a"] + eta * ops["g_b"]
    u1 = expm(-1j * (cfg.t1 * ops["h_chain"] + th1 * g))
    u2 = expm(-1j * (cfg.t2 * ops["h_exchange"] + th2 * g))
    return _read_only(u2 @ u1)


def dense_pair_gate(cfg: ProbeConfig, field: FieldConfig, site: int,
                    n: int) -> np.ndarray:
    """[[V, 0], [dV/dh_a, V]] of pair `site` in cycle n, with V the
    exchange-half gate after the diagonal half's pair factor, on the pair's
    cfg.pair_dim local states (model.PAIR_STATES).  Each half is scipy
    `expm` of the block generator [[-i M, 0], [-i unit dM, -i M]], whose
    lower-left block is d exp(-i M)/dh_a (Van Loan, IEEE Trans. Autom.
    Control 23, 395 (1978)): dM = site (sz_a + eta sz_b) and M = Theta dM,
    plus t2 J_ab (s+_a s-_b + s-_a s+_b) in the exchange half, built from
    two-qubit Pauli operators (a the low bit)."""
    keep = np.ix_(PAIR_STATES[cfg.pair_dim], PAIR_STATES[cfg.pair_dim])
    dM = (site * (embed(SZ, 0, 2) + field.eta * embed(SZ, 1, 2)))[keep]
    hop = (embed(SP, 0, 2) @ embed(SM, 1, 2)
           + embed(SM, 0, 2) @ embed(SP, 1, 2))[keep]
    gate = np.eye(2 * len(dM))
    for unit, h0 in zip(theta_units(n, field.delta_f),
                        (0.0 * hop, cfg.t2 * cfg.jab * hop)):
        M = field.h_a * unit * dM + h0
        gen = np.block([[-1j * M, np.zeros_like(M)],
                        [-1j * unit * dM, -1j * M]])
        gate = expm(gen) @ gate
    return gate


def dense_evolve(cfg: ProbeConfig, field: FieldConfig, cycles: int,
                 init: InitConfig | None = None) -> np.ndarray:
    """Statevectors at n = 0..cycles, rows indexed by n."""
    psi = dense_initial_state(cfg, init)
    states = [psi]
    for n in range(1, cycles + 1):
        psi = dense_cycle_unitary(cfg, field, n) @ psi
        states.append(psi)
    return np.array(states)


def dense_qfi_fd(cfg: ProbeConfig, field: FieldConfig, cycles: int,
                 init: InitConfig | None = None,
                 richardson: bool = True) -> float:
    """QFI at n = cycles by central finite differences of the dense evolution,
    with one optional Richardson refinement."""

    def final_state(h: float) -> np.ndarray:
        fld = FieldConfig(h_a=h, delta_f=field.delta_f, eta=field.eta)
        return dense_evolve(cfg, fld, cycles, init)[-1]

    def qfi_at_step(delta: float) -> float:
        h = field.h_a
        psi = final_state(h)
        if h - delta >= 0.0:
            dpsi = (final_state(h + delta) - final_state(h - delta)) / (2 * delta)
        else:
            # second-order one-sided stencil; h_a may not go negative
            dpsi = (-3.0 * psi + 4.0 * final_state(h + delta)
                    - final_state(h + 2 * delta)) / (2 * delta)
        return 4 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)

    delta = max(1e-6, 1e-3 * field.h_a)
    q1 = qfi_at_step(delta)
    if not richardson:
        return q1
    q2 = qfi_at_step(delta / 2)
    return (4 * q2 - q1) / 3.0


def dense_lindblad_rhs(rho: np.ndarray, H: np.ndarray, gamma: float,
                       cfg: ProbeConfig) -> np.ndarray:
    """-i[H, rho] + Gamma sum_q (sz_q rho sz_q - rho) over all 2L qubits."""
    nq = 2 * cfg.length
    out = -1j * (H @ rho - rho @ H)
    for q in range(nq):
        sz = embed(SZ, q, nq)
        out += gamma * (sz @ rho @ sz - rho)
    return out


def dense_liouvillian(H: np.ndarray, gamma: float, cfg: ProbeConfig) -> np.ndarray:
    """Matrix of rho -> dense_lindblad_rhs(rho, H, gamma) acting on the
    row-major vec of rho, built one basis matrix at a time."""
    dim = H.shape[0]
    cols = []
    for k in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[k] = 1.0
        cols.append(dense_lindblad_rhs(unit.reshape(dim, dim), H, gamma,
                                       cfg).reshape(-1))
    return np.array(cols).T


def dense_lindblad_cycle(rho: np.ndarray, cfg: ProbeConfig, field: FieldConfig,
                         gamma: float, n: int,
                         drho: np.ndarray | None = None):
    """One cycle of the Lindblad evolution: each half's constant Liouvillian
    (field phase Theta spread over the half as amplitude Theta/t) is
    exponentiated with scipy `expm`.  With `drho`, returns (rho, drho) and
    propagates d rho / d h_a exactly by `expm_frechet` along the
    Liouvillian's h_a-derivative."""
    ops = dense_operators(cfg)
    g = ops["g_a"] + field.eta * ops["g_b"]
    v = rho.reshape(-1)
    dv = None if drho is None else drho.reshape(-1)
    for unit, t, h0 in zip(theta_units(n, field.delta_f), (cfg.t1, cfg.t2),
                           (ops["h_chain"], ops["h_exchange"])):
        gen = t * dense_liouvillian(h0 + (field.h_a * unit / t) * g, gamma,
                                    cfg)
        if dv is None:
            v = expm(gen) @ v
            continue
        dgen = t * dense_liouvillian((unit / t) * g, 0.0, cfg)
        S, dS = expm_frechet(gen, dgen)
        v, dv = S @ v, S @ dv + dS @ v
    shape = rho.shape
    return v.reshape(shape) if dv is None else (v.reshape(shape),
                                                 dv.reshape(shape))


# ------------------------------------------------ references for test helpers

def total_magnetization_diagonal(cfg: ProbeConfig) -> np.ndarray:
    """Total sigma^z over all 2L qubits of the full pair space (conserved by
    the full dynamics): 2L minus twice the number of down (set) bits."""
    nq = 2 * cfg.length
    return np.array([nq - 2 * bin(z).count("1") for z in range(1 << nq)],
                    dtype=float)


def pair_swap_permutation(cfg: ProbeConfig) -> np.ndarray:
    """Basis permutation exchanging a_j <-> b_j within every pair (of the
    full pair space, d = 4)."""
    dim = 4 ** cfg.length
    z = np.arange(dim)
    even_mask = 0x5555555555555555 & (dim - 1)
    odd_mask = 0xAAAAAAAAAAAAAAAA & (dim - 1)
    return ((z & even_mask) << 1) | ((z & odd_mask) >> 1)


def qfi_bound_variance(cfg: ProbeConfig, n: int,
                       init: InitConfig | None = None) -> float:
    """Variance form of metrology.qfi_bound, 4 n^2 Var(G_a) / pi^2, on the
    equal superposition of the initial state and its pair-swapped partner
    (the subharmonic reference pair), from the dense operators.  For the
    tilt=0 state this equals metrology.qfi_bound exactly."""
    psi0 = dense_initial_state(cfg, init)
    ref = psi0 + psi0[pair_swap_permutation(cfg)]
    ref = ref / np.linalg.norm(ref)
    g = np.diag(dense_operators(cfg)["g_a"]).real
    p = np.abs(ref) ** 2
    var = float(g ** 2 @ p - (g @ p) ** 2)
    return 4.0 * n ** 2 * var / np.pi ** 2


def pang_jordan_bound(cfg: ProbeConfig, field: FieldConfig, n,
                      tilt: float = 0.0):
    """Ceiling on the QFI after n cycles (Boixo et al., PRL 98, 090401
    (2007); Pang & Jordan, Nat. Commun. 8, 14695 (2017)):
    (spread(G) * integral_0^{nT} |f(t)| dt)^2, where d H / d h_a = f(t) G,
    f(t) = sin(pi (1 + delta_f) t / T) and G = sum_j j (sz_{a,j} + eta
    sz_{b,j}).  spread(G), its largest minus its smallest eigenvalue over
    the states the run reaches, is (1 - eta) L (L+1) in the one-up-per-pair
    sector (tilt 0) and (1 + eta) L (L+1) on the full space.  A field phase
    applied as a square pulse of the half's integral only lowers the
    integral, and dephasing only mixes such runs (the QFI is convex), so
    the ceiling holds for both engines.  The integral of |f| is taken in
    closed form between its zeros (`_drive_integral`).  `n` may be an
    array."""
    L = cfg.length
    spread = (1.0 - field.eta if tilt == 0.0 else 1.0 + field.eta) * L * (L + 1)
    return (spread * _drive_integral(cfg, field, n)) ** 2


def separable_ceiling(cfg: ProbeConfig, field: FieldConfig, n,
                      tilt: float = 0.0):
    """Ceiling on the QFI after n cycles of L pairs that never couple,
    whatever their initial states and per-pair control: (integral_0^{nT}
    |f(t)| dt)^2 * sum_j spread(w_j)^2, with f(t) as in pang_jordan_bound
    and w_j = j (sz_{a,j} + eta sz_{b,j}) pair j's field term, whose spread
    is 2j (1 - eta) in the one-up-per-pair sector (tilt 0) and 2j (1 + eta)
    on the full space.  The QFI adds over product states, each pair obeys
    its own Pang-Jordan ceiling, and mixing only lowers the QFI.  It equals
    pang_jordan_bound at L = 1, which it undercuts by 3L(L+1) / (2(2L+1))
    at larger L.  `n` may be an array."""
    j = np.arange(1.0, cfg.length + 1)
    spread = 2.0 * j * (1.0 - field.eta if tilt == 0.0 else 1.0 + field.eta)
    return _drive_integral(cfg, field, n) ** 2 * np.sum(spread ** 2)


def _drive_integral(cfg: ProbeConfig, field: FieldConfig, n):
    """integral_0^{nT} |sin(pi (1 + delta_f) t / T)| dt in closed form: m
    whole half-waves of area 2/w each, plus the part of the next one."""
    w = np.pi * (1.0 + field.delta_f) / cfg.period
    phase = w * cfg.period * np.asarray(n, dtype=float)
    m = np.floor(phase / np.pi)
    return (2.0 * m + 1.0 - np.cos(phase - m * np.pi)) / w


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
