"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import calu, factorization_error, tournament_pivoting, tslu
from repro.core.tournament import partition_rows
from repro.kernels import getf2, ipiv_to_perm, invert_perm, is_permutation, lu_reconstruct
from repro.layouts import Block1D, BlockCyclic1D, BlockCyclic2D, ProcessGrid
from repro.scalapack import apply_swaps_to_permutation, winners_to_swaps

COMMON_SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- kernels
@given(
    m=st.integers(2, 24),
    n=st.integers(1, 24),
    seed=st.integers(0, 1000),
)
@settings(**COMMON_SETTINGS)
def test_getf2_always_reconstructs(m, n, seed):
    A = np.random.default_rng(seed).standard_normal((m, n))
    res = getf2(A)
    assert np.allclose(lu_reconstruct(res), A, atol=1e-9)
    assert is_permutation(res.perm)


@given(m=st.integers(1, 40), seed=st.integers(0, 1000))
@settings(**COMMON_SETTINGS)
def test_ipiv_perm_inverse_roundtrip(m, seed):
    rng = np.random.default_rng(seed)
    ipiv = np.array([rng.integers(k, m) for k in range(m)])
    perm = ipiv_to_perm(ipiv, m)
    assert is_permutation(perm)
    assert np.array_equal(perm[invert_perm(perm)], np.arange(m))


# --------------------------------------------------------------------- layouts
@given(m=st.integers(1, 200), p=st.integers(1, 16))
@settings(**COMMON_SETTINGS)
def test_block1d_partition_property(m, p):
    dist = Block1D(m, p)
    rows = np.concatenate([dist.rows_of(i) for i in range(p)]) if m else np.array([])
    assert np.array_equal(np.sort(rows), np.arange(m))
    base = -(-m // p)
    for i in range(m):
        assert i in dist.rows_of(min(i // base, p - 1))


@given(m=st.integers(1, 200), b=st.integers(1, 16), p=st.integers(1, 8))
@settings(**COMMON_SETTINGS)
def test_block_cyclic1d_partition_property(m, b, p):
    dist = BlockCyclic1D(m, b, p)
    rows = np.concatenate([dist.rows_of(i) for i in range(p)])
    assert np.array_equal(np.sort(rows), np.arange(m))


@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    b=st.integers(1, 8),
    pr=st.integers(1, 4),
    pc=st.integers(1, 4),
    seed=st.integers(0, 100),
)
@settings(**COMMON_SETTINGS)
def test_block_cyclic2d_scatter_gather_property(m, n, b, pr, pc, seed):
    dist = BlockCyclic2D(m, n, b, ProcessGrid(pr, pc))
    A = np.random.default_rng(seed).standard_normal((m, n))
    assert np.allclose(dist.gather(dist.scatter(A)), A)


# ------------------------------------------------------------------ tournament
@given(
    m=st.integers(4, 48),
    b=st.integers(1, 6),
    p=st.integers(1, 6),
    seed=st.integers(0, 500),
    schedule=st.sampled_from(["flat", "binary", "butterfly"]),
)
@settings(**COMMON_SETTINGS)
def test_tournament_winner_block_nonsingular(m, b, p, seed, schedule):
    b = min(b, m)
    A = np.random.default_rng(seed).standard_normal((m, b))
    groups = partition_rows(m, p)
    res = tournament_pivoting([(g, A[g, :]) for g in groups], b, schedule=schedule)
    assert len(set(res.winners.tolist())) == min(b, m)
    # Winner block is nonsingular with overwhelming probability for Gaussian data.
    W = A[res.winners, :]
    assert abs(np.linalg.det(W)) > 1e-12


@given(
    m=st.integers(6, 60),
    b=st.integers(1, 8),
    p=st.integers(1, 6),
    seed=st.integers(0, 500),
)
@settings(**COMMON_SETTINGS)
def test_tslu_factorization_property(m, b, p, seed):
    b = min(b, m)
    A = np.random.default_rng(seed).standard_normal((m, b))
    res = tslu(A, nblocks=p)
    assert is_permutation(res.perm)
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-8)


# ------------------------------------------------------------------------ CALU
@given(
    n=st.integers(4, 40),
    b=st.integers(1, 12),
    p=st.integers(1, 4),
    seed=st.integers(0, 300),
)
@settings(**COMMON_SETTINGS)
def test_calu_backward_error_property(n, b, p, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    res = calu(A, block_size=b, nblocks=p)
    assert is_permutation(res.perm)
    assert factorization_error(A, res) < 1e-8


@given(
    n=st.integers(4, 32),
    b=st.integers(1, 8),
    p=st.integers(1, 4),
    seed=st.integers(0, 300),
)
@settings(**COMMON_SETTINGS)
def test_calu_threshold_bounds_L_property(n, b, p, seed):
    """|L| <= 1 / tau_min — the threshold-pivoting invariant."""
    A = np.random.default_rng(seed).standard_normal((n, n))
    res = calu(A, block_size=b, nblocks=p, compute_thresholds=True)
    tau_min = res.threshold_history.min()
    if tau_min > 0:
        assert np.max(np.abs(res.L)) <= 1.0 / tau_min + 1e-6


# ----------------------------------------------------------------------- swaps
@given(
    m=st.integers(4, 64),
    j0=st.integers(0, 10),
    k=st.integers(1, 8),
    seed=st.integers(0, 500),
)
@settings(**COMMON_SETTINGS)
def test_winners_to_swaps_property(m, j0, k, seed):
    rng = np.random.default_rng(seed)
    j0 = min(j0, m - 1)
    k = min(k, m - j0)
    winners = rng.choice(np.arange(j0, m), size=k, replace=False).tolist()
    swaps = winners_to_swaps(j0, winners)
    perm = apply_swaps_to_permutation(np.arange(m), swaps)
    assert is_permutation(perm)
    assert list(perm[j0 : j0 + k]) == winners
