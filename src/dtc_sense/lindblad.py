"""Density-matrix evolution under the piecewise-constant Lindblad equation.

Within each half-period the generator is constant: the half's Hamiltonian
(with the accumulated field phase spread over the half as a constant
amplitude Theta/t_half, so the Gamma = 0 limit reproduces the unitary engine
exactly) plus local sigma^z dephasing at rate Gamma on every site of both
chains.  In the computational basis the dephasing superoperator is
elementwise: (sum_j sigma^z_j rho sigma^z_j) - 2L rho has matrix elements
-2 * hamming(z XOR z') * rho_{zz'}.

Each half's generator is a sum of commuting pair-local terms, plus, in
the diagonal half, the h_a-independent Ising term, so each half has an
exact channel built from the unitary engine's pieces, at the engine's pair
dimension d (4 on the full space, 2 in the one-up-per-pair sector; see the
model docstring):

  1. diagonal half: rho_{zz'} <- C_{zz'} prod_j D_j(z_j, z'_j) rho_{zz'},
     with the chain factor C_{zz'} = exp(-i t1 (E_z - E_z')) (E the Ising
     energies) and the pair factors
     D_j(k, k') = exp(-i Theta_1 (w_j[k] - w_j[k'])
                      - 2 Gamma t1 hamming_d(k, k')),
     w_j the pure engine's field weights;
  2. exchange half: L commuting d^2 x d^2 pair superoperators
     S_j = exp(A_j),  A_j = -i (M_j x 1 - 1 x M_j^T) - 2 Gamma t2 diag(hamming_d),
     where M_j is the pure engine's d x d pair-gate exponent and hamming_d
     the Hamming distance over the pair's two spins.

hamming counts the spins on which z and z' differ; in the sector a tau flip
flips both spins of its pair, so sigma^z dephasing at rate Gamma on a_j and
b_j acts there as tau^z dephasing at rate 2 Gamma.

The derivative d rho / d h_a is co-propagated by the product rule.  Each
pair's block [[S_j, 0], [dS_j/dh_a, S_j]] is exp([[A_j, 0], [Theta_unit E_j,
A_j]]) with E_j = dA_j/dTheta (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
30, 1639 (2009)), and D_j, diagonal on the pair's vec, is folded into it
as in the unitary engine: [[S_j D_j, 0], [dS_j D_j + S_j dD_j, S_j D_j]].
The chain factor needs no derivative.  The state of B fields is one
model.EngineState, as in the unitary engine, whose one array x of shape
(B, 2, d^L, d^L) stacks each rho and its d rho.  So a cycle multiplies x by
C once, transposes it into the (B, 2, d^(2L)) layout with one digit (z_j,
z'_j), the row-major vec of the pair's d x d block, per pair (pair 1 least
significant), runs the L blocks through floquet.apply_pair_gates at local
dimension d^2, as the unitary engine runs its gates on (psi, d psi), and
transposes back.  There is no time stepping and no finite difference.

LindbladEngine is a FloquetEngine: it takes the same field batches, reuses
the field weights, the fold of D_j and the block cache, and exponentiates
the L*B lifted blocks as one stack.  It forms the exponents M_j and
dM_j/dTheta itself: the unitary engine's gates are closed-form and never
build them.  C is the outer product of the unitary engine's chain factor
with its conjugate, one d^L x d^L matrix built once per engine.

noisy_fisher has no readout of its own: metrology.record_trace, the loop
the pure-state traces run too, reads (diag rho, diag d rho) of every field
through LindbladEngine.distribution and returns one trace per field.  It is
imported on the call: the layers read model <- floquet <- lindblad <-
metrology, and building an engine loads no readout code.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .floquet import EXCHANGED, FloquetEngine, apply_pair_gates
from .model import (
    EngineState,
    FieldConfig,
    InitConfig,
    ProbeConfig,
    build_initial_state,
    engine_probe,
    pair_spins,
)

_TAYLOR_DEGREE = 16


def hamming_distance_matrix(pair_dim: int) -> np.ndarray:
    """hamming(k XOR k') between the d local states of one pair, counted
    over its two spins (small ints as float): shape (d, d), d = pair_dim."""
    sa, sb = pair_spins(pair_dim)
    return (sa[:, None] != sa) + (sb[:, None] != sb) * 1.0


def _expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix of the stack X (..., n, n): Taylor
    polynomial of degree 16 (Horner form) on X scaled to 1-norm <= 1/2, where
    its truncation error is below 1e-20, then squared back.  Each matrix is
    scaled by its own 1-norm, so its result does not depend on the stack."""
    norm = np.abs(X).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5))[..., None, None]
    X = X / 2.0 ** s
    eye = np.eye(X.shape[-1])
    E = eye.astype(X.dtype)
    for k in range(_TAYLOR_DEGREE, 0, -1):
        E = eye + (X @ E) / k
    for i in range(int(s.max(initial=0))):
        E = np.where(s > i, E @ E, E)
    return E


class LindbladEngine(FloquetEngine):
    """Steps a density matrix (and an attached d rho / d h_a) cycle by cycle
    through the exact channel of each half-period: a FloquetEngine whose
    pair blocks are the exchange-half superoperators (module docstring)."""

    mixed = True
    # one exact step per half-period; perfbench/traced_cli.py reads this to
    # count the work of apply_cycle
    substeps = 1

    def __init__(self, cfg: ProbeConfig,
                 fields: FieldConfig | list[FieldConfig], gamma: float):
        if not 0.0 <= gamma < np.inf:
            raise ConfigError(f"gamma must be finite and >= 0, got {gamma}")
        super().__init__(cfg, fields)
        self.chain = np.outer(self.chain, self.chain.conj())
        # on the row-major vec of a pair's d x d block of rho: the field
        # phase w_k - w_k' and the dephasing of each half
        w = self.weights
        ham = hamming_distance_matrix(cfg.pair_dim).reshape(-1)
        self._phase_w = (w[:, :, None] - w[:, None, :]).reshape(cfg.length, -1)
        self._t1_decay = np.exp(-2.0 * gamma * cfg.t1 * ham)
        self._pair_deph = 2.0 * gamma * cfg.t2 * ham
        # axes (b, c, z_L..z_1, z'_L..z'_1) to (b, c, z_L, z'_L, .., z_1, z'_1)
        L = cfg.length
        self._interleave = [0, 1,
                            *np.arange(2, 2 * L + 2).reshape(2, L).T.flat]

    def _exchange_blocks(self, unit: float) -> np.ndarray:
        """Block superoperators [[S, 0], [dS/dh_a, S]] of the exchange half
        at Theta = h_a * unit, on the row-major vec of each pair's d x d
        block of rho: shape (L, B, 2d^2, 2d^2), row j-1 for the (a_j, b_j)
        pair."""
        d, (p, q) = self.cfg.pair_dim, EXCHANGED[self.cfg.pair_dim]
        eye = np.eye(d)
        # the pure exchange half's exponents M = Theta w_j + t2 J_ab hop
        # (hop couples floquet.EXCHANGED) and dM/dTheta = w_j: (L, B, d, d)
        # and (L, 1, d, d)
        dM = self.weights[:, None, :, None] * eye
        M = (self.h_a * unit)[:, None, None] * dM
        M[..., [p, q], [q, p]] = self.cfg.t2 * self.cfg.jab

        def lift(X):  # X rho - rho X as a matrix on the row-major vec of rho
            return -1j * (np.kron(X, eye) - np.kron(eye, X.swapaxes(-1, -2)))

        A = lift(M) - np.diag(self._pair_deph)
        # linear in Theta: one derivative for every field
        E = np.broadcast_to(unit * lift(dM), A.shape)
        return _expm(np.block([[A, np.zeros_like(A)], [E, A]]))

    def distribution(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The basis distribution diag rho and its h_a-derivative diag d rho
        of the (B, 2, d^L, d^L) stack X, one row per field."""
        diag = np.diagonal(X, axis1=-2, axis2=-1).real
        return diag[:, 0], diag[:, 1]

    def apply_cycle(self, state: EngineState, n: int) -> EngineState:
        """Advance `state` by cycle n (in place; module docstring)."""
        Y = self._chain_step(state)
        digits = Y.shape[:2] + (self.cfg.pair_dim,) * (2 * self.cfg.length)
        X = Y.reshape(digits).transpose(self._interleave) \
            .reshape(Y.shape[:2] + (-1,))
        state.x = apply_pair_gates(X, self.pair_gates(n)).reshape(digits) \
            .transpose(np.argsort(self._interleave)).reshape(Y.shape)
        return state


def initial_mixed_state(cfg: ProbeConfig, init: InitConfig | None = None,
                        gamma: float = 0.0) -> EngineState:
    """The initial state's projector with a zero d rho / d h_a: the B = 1
    stack.  `gamma` is unread, kept only for perfbench/setup_probe.py's
    three positional arguments until that probe changes (ROADMAP item 1)."""
    psi = build_initial_state(cfg, init)
    rho = np.outer(psi, psi.conj())
    return EngineState(np.stack((rho, np.zeros_like(rho)))[None])


def noisy_fisher(cfg: ProbeConfig, fields: list[FieldConfig], gamma: float,
                 cycles: int,
                 init: InitConfig | None = None) -> list:
    """Mixed-state imbalance, QFI and CFIs at every cycle n = 0..cycles
    under dephasing, recorded by metrology.record_trace: one trace per field
    (all sharing delta_f and eta), as metrology.stroboscopic_traces gives.

    One LindbladEngine, at the pair dimension model.engine_probe picks for
    `init`, evolves each rho with its exact h_a-derivative, so h_a = 0 needs
    no special case.  It runs exactly the batch given (model.batch_size
    sizes the ones callers form).  A negative or non-finite gamma raises
    ConfigError, a density matrix beyond model.MIXED_STATE_MAX_DIM rows
    ResourceLimitError (from the engine), and the mixed QFI NumericalError
    on trace drift or negative eigenvalues.
    """
    from .metrology import record_trace  # the readout layer sits above
    cfg = engine_probe(cfg, init)
    engine = LindbladEngine(cfg, fields, gamma)
    return record_trace(engine, initial_mixed_state(cfg, init), cycles)
