import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dtc_sense import model
from dtc_sense.errors import ConfigError, ResourceLimitError
from dtc_sense.lindblad import hamming_distance_matrix
from dtc_sense.model import (
    FieldConfig,
    InitConfig,
    ProbeConfig,
    batch_size,
    build_initial_state,
    chain_interaction_diagonal,
    collective_index_a,
    engine_probe,
    field_weights,
    observable_diagonal,
    pair_sum,
)


def test_probe_config_derived_quantities():
    cfg = ProbeConfig(length=4, epsilon=0.1)
    assert cfg.jab == pytest.approx(np.pi * 0.9)
    assert cfg.t1 == cfg.t2 == 0.5
    assert cfg.period == 1.0
    assert cfg.dim == 256


@pytest.mark.parametrize("kwargs", [
    {"length": 0}, {"length": -2},
    {"length": 3, "epsilon": 1.0}, {"length": 3, "epsilon": -0.1},
    {"length": 2.5}, {"length": 2.0}, {"length": float("nan")},
    {"length": True},
])
def test_probe_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ProbeConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"h_a": -1e-3}, {"eta": 1.0}, {"eta": -0.2}, {"delta_f": -1.0},
])
def test_field_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        FieldConfig(**kwargs)


@pytest.mark.parametrize("cls,kwargs", [
    (FieldConfig, {"h_a": np.nan}), (FieldConfig, {"h_a": np.inf}),
    (FieldConfig, {"delta_f": np.nan}), (FieldConfig, {"delta_f": np.inf}),
    (ProbeConfig, {"length": 2, "epsilon": np.nan}),
    (ProbeConfig, {"length": 2, "epsilon": np.inf}),
])
def test_configs_reject_non_finite_values(cls, kwargs):
    # NaN fails no single comparison and inf passes a one-sided bound
    with pytest.raises(ConfigError):
        cls(**kwargs)


def test_init_config_range():
    InitConfig(tilt=0.0)
    InitConfig(tilt=np.pi / 4)
    with pytest.raises(ConfigError):
        InitConfig(tilt=np.pi / 2)
    with pytest.raises(ConfigError):
        InitConfig(tilt=-0.01)


def test_reference_state_is_single_configuration():
    # a-chain all up (bits 0), b-chain all down (bits 1): L=2 -> 0b1010
    psi = build_initial_state(ProbeConfig(length=2))
    assert np.argmax(np.abs(psi)) == 0b1010
    assert psi[0b1010] == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(psi) > 1e-15) == 1


def test_quarter_tilt_populates_everything():
    cfg = ProbeConfig(length=3)
    psi = build_initial_state(cfg, InitConfig(tilt=np.pi / 4))
    assert np.all(np.abs(psi) > 0)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_tilted_overlap_with_reference():
    cfg = ProbeConfig(length=3)
    ref = build_initial_state(cfg)
    tilted = build_initial_state(cfg, InitConfig(tilt=0.01 * np.pi))
    overlap = abs(np.vdot(ref, tilted))
    assert overlap == pytest.approx(np.cos(0.01 * np.pi) ** 6, abs=1e-12)
    assert overlap == pytest.approx(0.99705, abs=5e-5)


@settings(max_examples=30, deadline=None)
@given(L=st.integers(1, 4), tilt=st.floats(0.0, np.pi / 4))
def test_initial_state_norm_and_fidelity(L, tilt):
    cfg = ProbeConfig(length=L)
    psi = build_initial_state(cfg, InitConfig(tilt=tilt))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    ref = build_initial_state(cfg)
    fid = abs(np.vdot(ref, psi))
    assert fid == pytest.approx(np.cos(tilt) ** (2 * L), abs=1e-12)


def test_gradient_observable_extremes():
    cfg = ProbeConfig(length=2)
    d = pair_sum(field_weights(cfg, 0.0))
    assert d[0] == pytest.approx(3.0)          # all up: 1 + 2
    lam = cfg.length * (cfg.length + 1) / 2
    assert d.max() == pytest.approx(lam)
    assert d.min() == pytest.approx(-lam)
    # both a-spins down (bits 0 and 2 set), b-spins anything: pick 0b0101
    assert d[0b0101] == pytest.approx(-3.0)


def test_gradient_extremes_attained_at_polarized_configs():
    cfg = ProbeConfig(length=3)
    d = pair_sum(field_weights(cfg, 0.0))
    z_all_up_a = 0                      # every a-bit clear
    z_all_down_a = 0b010101             # every a-bit set, b-bits clear
    assert d[z_all_up_a] == d.max()
    assert d[z_all_down_a] == d.min()


def test_imbalance_numerator_on_reference_state():
    cfg = ProbeConfig(length=3)
    d = observable_diagonal(cfg)
    psi = build_initial_state(cfg)
    value = d @ np.abs(psi) ** 2
    assert value == pytest.approx(2 * cfg.length)


def test_chain_interaction_diagonal_small_case():
    # L=2: -(sa1 sa2 + sb1 sb2); at z=0 all spins up -> -2
    cfg = ProbeConfig(length=2)
    e = chain_interaction_diagonal(cfg)
    assert e[0] == pytest.approx(-2.0)
    # flip a2 (bit 2): a-bond +1, b-bond -1 -> 0
    assert e[0b0100] == pytest.approx(0.0)


def test_total_magnetization_diagonal():
    cfg = ProbeConfig(length=2)
    m = oracles.total_magnetization_diagonal(cfg)
    assert m[0] == pytest.approx(4.0)
    assert m[0b1111] == pytest.approx(-4.0)
    assert m[0b1010] == pytest.approx(0.0)


@given(L=st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_collective_index_counts_up_a_spins(L):
    cfg = ProbeConfig(length=L)
    idx = collective_index_a(cfg)
    assert idx.min() == 0 and idx.max() == L
    # collective observable sum_j sigma^z_{a,j} has eigenvalue 2k - L
    m_a = sum(oracles.embed(oracles.SZ, 2 * j, 2 * L) for j in range(L))
    assert np.array_equal(2 * idx - L, np.diag(m_a).real)


def _dense_diagonals(cfg):
    ops = oracles.dense_operators(cfg)
    return {name: np.diag(ops[name]).real
            for name in ("h_chain", "g_a", "g_b", "imbalance_num")}


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_pair_local_diagonals_match_independent_references(L):
    # the oracle embeds each sigma^z on qubit 2(j-1) (a_j) or 2(j-1) + 1
    # (b_j), bit value 1 being spin down; every value is a small integer or
    # (the field generator at eta = 1/2) half of one
    cfg = ProbeConfig(length=L)
    dense = _dense_diagonals(cfg)
    dense["g_a + g_b / 2"] = dense["g_a"] + 0.5 * dense["g_b"]
    ours = {"h_chain": chain_interaction_diagonal(cfg),
            "g_a": pair_sum(field_weights(cfg, 0.0)),
            "g_a + g_b / 2": pair_sum(field_weights(cfg, 0.5)),
            "imbalance_num": observable_diagonal(cfg)}
    for name, diag in ours.items():
        assert diag.dtype == np.float64
        assert np.array_equal(diag, dense[name]), name
    z = np.arange(cfg.dim)
    clear_even_bits = [sum(not (k >> q) & 1 for q in range(0, 2 * L, 2))
                       for k in z]
    idx = collective_index_a(cfg)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, clear_even_bits)
    if L <= 3:
        # the one-pair Hamming matrix, summed over the pair digits of z and
        # z', is the Hamming distance over all 2L spins
        ham = hamming_distance_matrix(4)
        digits = [[(k >> 2 * j) & 3 for j in range(L)] for k in z]
        summed = [[sum(ham[a, b] for a, b in zip(dk, dk2)) for dk2 in digits]
                  for dk in digits]
        popcount = [[bin(k ^ k2).count("1") for k2 in z] for k in z]
        assert np.array_equal(summed, popcount)


# ------------------------------------------------------- pair-qubit sector

def _sector_columns(L):
    """Full-space basis index of each sector basis state: tau_j up is the
    full local state 2 (a up, b down), tau_j down is 1 (a down, b up)."""
    return np.array([sum((2, 1)[(z >> j) & 1] * 4 ** j for j in range(L))
                     for z in range(2 ** L)])


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_initial_state_matches_the_dense_oracle(L):
    # a sign slip in a tilted amplitude, or a/b swapped within a pair, moves
    # the tilted state off the Kronecker product over all 2L qubits
    cfg = ProbeConfig(length=L)
    for tilt in (0.0, 0.01 * np.pi, 0.2 * np.pi, np.pi / 4):
        init = InitConfig(tilt=tilt)
        psi = build_initial_state(cfg, init)
        assert np.max(np.abs(psi - oracles.dense_initial_state(cfg, init))) \
            <= 1e-15
    sector = build_initial_state(ProbeConfig(length=L, pair_dim=2))
    assert np.array_equal(sector, oracles.dense_initial_state(cfg)
                          [_sector_columns(L)])


def test_engine_probe_picks_the_sector_at_tilt_zero_only():
    cfg = ProbeConfig(length=5, epsilon=0.2)
    sector = engine_probe(cfg, None)
    assert sector.pair_dim == 2 and sector.dim == 32
    assert (sector.length, sector.epsilon) == (5, 0.2)
    assert engine_probe(cfg, InitConfig(tilt=1e-3)).pair_dim == 4
    with pytest.raises(ConfigError):
        ProbeConfig(length=2, pair_dim=3)
    with pytest.raises(ConfigError):
        build_initial_state(sector, InitConfig(tilt=0.1))


@pytest.mark.parametrize("L", [1, 2, 4])
def test_sector_table_and_diagonals_are_full_space_columns(L):
    # sigma^z_{a,j} is tau_j and sigma^z_{b,j} is -tau_j, so every diagonal
    # (and the initial state) is the full-space one restricted to the sector
    full, sector = ProbeConfig(length=L), ProbeConfig(length=L, pair_dim=2)
    cols = _sector_columns(L)
    for eta in (0.0, 0.5):
        assert np.array_equal(pair_sum(field_weights(sector, eta)),
                              pair_sum(field_weights(full, eta))[cols])
    assert np.array_equal(observable_diagonal(sector),
                          observable_diagonal(full)[cols])
    assert np.array_equal(chain_interaction_diagonal(sector),
                          chain_interaction_diagonal(full)[cols])
    assert np.array_equal(collective_index_a(sector),
                          collective_index_a(full)[cols])
    assert np.array_equal(hamming_distance_matrix(2),
                          hamming_distance_matrix(4)[np.ix_([2, 1], [2, 1])])
    psi = build_initial_state(sector)
    assert psi[0] == 1.0
    assert np.linalg.norm(psi) == 1.0
    assert np.array_equal(psi, build_initial_state(full)[cols])
    imb = observable_diagonal(sector)
    assert imb @ np.abs(psi) ** 2 == 2 * L


def test_sector_gradient_does_not_overflow_at_L16():
    # the gradient sum_j j tau_j reaches sum_j j = 136 > 127 at L = 16,
    # beyond any int8 accumulator, so it must be summed in float
    cfg = engine_probe(ProbeConfig(length=16), InitConfig())
    g = pair_sum(field_weights(cfg, 0.0))
    assert g.dtype == np.float64
    assert g.max() == 136.0 and g[0] == 136.0
    assert g.min() == -136.0 and g[-1] == -136.0


# ----------------------------------------------------------- resource gate

def test_batch_size_at_the_gate_edges():
    # 4^8 amplitudes admit L = 16 in the sector (d = 2) and L = 8 tilted
    # (d = 4); 4^5 density-matrix rows admit L = 10 and L = 5.  An admitted
    # state is a batch of limit^p // dim^p of them (p = 2 for rho), one at
    # the edge, and a refused one raises with today's message
    for mixed, limit, p, edges, top in (
            (False, model.PURE_STATE_MAX_DIM, 1, {2: 16, 4: 8}, 16),
            (True, model.MIXED_STATE_MAX_DIM, 2, {2: 10, 4: 5}, 10)):
        for d, last in edges.items():
            assert batch_size(ProbeConfig(last, pair_dim=d), mixed) == 1
            for L in range(1, max(top, last + 1) + 1):
                cfg = ProbeConfig(L, pair_dim=d)
                if L <= last:
                    assert batch_size(cfg, mixed) == \
                        max(1, limit ** p // cfg.dim ** p)
                    continue
                kind = "density-matrix" if mixed else "pure-state"
                with pytest.raises(ResourceLimitError,
                                   match=f"^{kind} runs are gated to {limit} "
                                         f"basis states; L={L} at pair "
                                         f"dimension {d} needs {d ** L}$"):
                    batch_size(cfg, mixed)
