"""Unit tests for the ca-pivoting tournament."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    local_candidates,
    merge_candidates,
    partition_rows,
    tournament_pivoting,
)
from repro.core import tournament
from repro.core.tournament import CandidateSet
from repro.kernels import FlopCounter, getf2
from repro.randmat import randn, tall_skinny


def _blocks(A, nblocks, scheme="contiguous", block=2):
    groups = partition_rows(A.shape[0], nblocks, scheme=scheme, block=block)
    return [(g, A[g, :]) for g in groups]


# ------------------------------------------------------------- partition_rows
@pytest.mark.parametrize("scheme", ["contiguous", "block_cyclic"])
@pytest.mark.parametrize("m,p", [(16, 4), (17, 4), (8, 16), (30, 3)])
def test_partition_rows_covers_exactly_once(scheme, m, p):
    groups = partition_rows(m, p, scheme=scheme, block=2)
    allrows = np.concatenate([g for g in groups if g.size])
    assert np.array_equal(np.sort(allrows), np.arange(m))


def test_partition_rows_unknown_scheme():
    with pytest.raises(ValueError):
        partition_rows(10, 2, scheme="nope")


# ----------------------------------------------------------- local candidates
def test_local_candidates_picks_partial_pivot_rows():
    A = randn(12, 3, seed=1)
    cand = local_candidates(np.arange(12), A, 3)
    ref = getf2(A).perm[:3]
    assert np.array_equal(cand.rows, ref)
    assert np.allclose(cand.block, A[ref, :])


def test_local_candidates_short_block_returns_all_rows():
    A = randn(2, 4, seed=2)
    cand = local_candidates(np.arange(2), A, 4)
    assert cand.rows.shape[0] == 2


def test_local_candidates_empty_block():
    cand = local_candidates(np.arange(0), np.zeros((0, 3)), 3)
    assert cand.rows.shape[0] == 0


def test_candidate_set_validates_shapes():
    with pytest.raises(ValueError):
        CandidateSet(rows=np.arange(3), block=np.zeros((2, 2)))


# ----------------------------------------------------------- merge candidates
def test_merge_candidates_selects_strongest_rows():
    """A block with huge entries must win over a block with tiny entries."""
    big = CandidateSet(rows=np.array([0, 1]), block=np.array([[10.0, 0.0], [0.0, 10.0]]))
    small = CandidateSet(rows=np.array([2, 3]), block=np.array([[0.1, 0.0], [0.0, 0.1]]))
    merged, U = merge_candidates(small, big, 2)
    assert set(merged.rows.tolist()) == {0, 1}
    assert U.shape == (2, 2)


def test_merge_candidates_u_is_upper_triangular():
    a = CandidateSet(rows=np.array([0, 1]), block=randn(2, 2, seed=3))
    b = CandidateSet(rows=np.array([2, 3]), block=randn(2, 2, seed=4))
    _, U = merge_candidates(a, b, 2)
    assert np.allclose(U, np.triu(U))


# -------------------------------------------------------------- full tournament
@pytest.mark.parametrize("schedule", ["flat", "binary", "butterfly"])
@pytest.mark.parametrize("nblocks", [1, 2, 3, 4, 8])
def test_tournament_winners_are_valid_rows(schedule, nblocks):
    A = randn(32, 4, seed=nblocks)
    res = tournament_pivoting(_blocks(A, nblocks), 4, schedule=schedule)
    assert len(set(res.winners.tolist())) == 4
    assert all(0 <= w < 32 for w in res.winners)
    # The winner block must be nonsingular (it is the panel's U11 source).
    assert abs(np.linalg.det(A[res.winners, :])) > 1e-10


@pytest.mark.parametrize("schedule", ["flat", "binary", "butterfly"])
def test_tournament_single_block_equals_partial_pivoting(schedule):
    A = randn(20, 3, seed=9)
    res = tournament_pivoting(_blocks(A, 1), 3, schedule=schedule)
    ref = getf2(A).perm[:3]
    assert np.array_equal(res.winners, ref)


def test_tournament_u_consistent_with_winners():
    """U must be the upper factor of the no-pivot LU of the winner rows."""
    A = randn(24, 4, seed=13)
    res = tournament_pivoting(_blocks(A, 4), 4)
    W = A[res.winners, :]
    # No-pivot elimination of W.
    from repro.kernels.getf2 import getf2_nopivot

    U_ref = np.triu(getf2_nopivot(W))
    assert np.allclose(res.U, U_ref, atol=1e-10)


def _assert_schedule_depths(A, nblocks, depth):
    b = A.shape[1]
    for schedule, rounds in depth.items():
        res = tournament_pivoting(_blocks(A, nblocks), b, schedule=schedule)
        assert res.rounds == rounds, (nblocks, schedule)
        assert abs(np.linalg.det(A[res.winners, :])) > 1e-12


def test_tournament_rounds_depth():
    """Flat reduction takes nblocks - 1 rounds, binary and butterfly log2(nblocks),
    and every schedule still selects a nonsingular winner block."""
    _assert_schedule_depths(randn(32, 2, seed=5), 8, {"flat": 7, "binary": 3, "butterfly": 3})


def test_tournament_schedule_depth_on_16_blocks():
    """The same depths on a 256 x 8 panel split into 16 blocks."""
    _assert_schedule_depths(
        tall_skinny(256, 8, seed=1), 16, {"flat": 15, "binary": 4, "butterfly": 4}
    )


def test_tournament_winners_never_include_zero_rows():
    """Rows that are identically zero cannot win while nonzero rows exist."""
    A = np.zeros((16, 2))
    A[3] = [1.0, 2.0]
    A[11] = [3.0, -1.0]
    res = tournament_pivoting(_blocks(A, 4), 2)
    assert set(res.winners.tolist()) == {3, 11}


def test_tournament_invalid_inputs():
    A = randn(8, 2, seed=1)
    with pytest.raises(ValueError):
        tournament_pivoting(_blocks(A, 2), 0)
    with pytest.raises(ValueError):
        tournament_pivoting([], 2)
    with pytest.raises(ValueError):
        tournament_pivoting(_blocks(A, 2), 2, schedule="unknown")


def test_tournament_block_cyclic_vs_contiguous_same_winner_set_quality():
    """Different partitions may pick different winners, but both winner blocks
    must be well conditioned relative to the best possible pivots."""
    A = randn(40, 4, seed=21)
    w1 = tournament_pivoting(_blocks(A, 4, "contiguous"), 4).winners
    w2 = tournament_pivoting(_blocks(A, 4, "block_cyclic", block=4), 4).winners
    d1 = abs(np.linalg.det(A[w1, :]))
    d2 = abs(np.linalg.det(A[w2, :]))
    assert d1 > 1e-8 and d2 > 1e-8


# ------------------------------------------------- one walker, against the paper
def _hostile_panel(kind, m, b, seed):
    A = np.random.default_rng(seed).standard_normal((m, b))
    if kind == "tie":  # every pivot search is an exact tie
        return np.sign(A)
    if kind == "zero_column":
        A[:, seed % b] = 0.0
    return A


@pytest.mark.parametrize("leaves", ["auto", "reference"])
@pytest.mark.parametrize("schedule", ["flat", "binary", "butterfly"])
@pytest.mark.parametrize("selector", ["getf2", "rrqr"])
@given(
    shape=st.sampled_from([(64, 8), (53, 7), (20, 8), (5, 8), (96, 4)]),
    nblocks=st.sampled_from([1, 2, 3, 5, 8, 13]),
    kind=st.sampled_from(["randn", "tie", "zero_column"]),
    scheme=st.sampled_from(["contiguous", "block_cyclic"]),
    local_kernel=st.sampled_from(["getf2", "rgetf2"]),
    seed=st.integers(0, 50),
)
@settings(deadline=None, max_examples=20, suppress_health_check=list(HealthCheck))
def test_tournament_matches_the_one_merge_at_a_time_oracle(
    tournament_oracle, reference_leaves, selector, schedule, leaves, shape, nblocks,
    kind, scheme, local_kernel, seed,
):
    """Batching, deduplication, the LAPACK-backed leaves and the shared walker
    change no bit: winners, ``U``, rounds and all three ledger fields equal the
    naive tournament on the reference kernel bodies (``tests/conftest.py``), on
    every selector x schedule, including exact-tie and zero-column panels.
    ``leaves="reference"`` swaps the oracle's own leaves in, isolating the
    merges and the walker."""
    m, b = shape
    A = _hostile_panel(kind, m, b, seed)
    blocks = _blocks(A, nblocks, scheme, block=b)
    flops = FlopCounter()
    with mock.patch.object(
        tournament, "leaf_candidates",
        reference_leaves if leaves == "reference" else tournament.leaf_candidates,
    ):
        res = tournament_pivoting(
            blocks, b, flops=flops, schedule=schedule, local_kernel=local_kernel,
            selector=selector,
        )
    rows, U, rounds, expected = tournament_oracle(blocks, b, schedule, selector, local_kernel)
    assert np.array_equal(res.winners, rows)
    assert res.U.tobytes() == U.tobytes()
    assert res.rounds == rounds
    assert (flops.muladds, flops.divides, flops.comparisons) == (
        expected.muladds, expected.divides, expected.comparisons)
