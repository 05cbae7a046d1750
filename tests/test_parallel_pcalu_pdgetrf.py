"""Tests for the distributed CALU and the simulated ScaLAPACK PDGETRF."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import calu
from repro.core.options import SolveConfig
from repro.kernels import getrf_partial_pivoting
from repro.layouts import ProcessGrid
from repro.parallel import pcalu
from repro.randmat import randn


def cfg(grid, b, **knobs):
    """The run config: the unit machine unless ``machine=`` names another."""
    return SolveConfig.resolve(grid=grid, b=b, **knobs)


def pdgetrf(A, grid, b, **knobs):
    """ScaLAPACK's PDGETRF: the block LU driver with partial-pivoting panels."""
    return pcalu(A, cfg(grid, b, pivoting="pp", **knobs))


@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(16, 4, 2, 2), (32, 8, 2, 2), (32, 4, 2, 4), (48, 8, 4, 2), (24, 8, 1, 2), (36, 6, 2, 3)],
)
def test_pcalu_factorization_correct(n, b, pr, pc):
    A = randn(n, seed=n + b + pr)
    res = pcalu(A, cfg(ProcessGrid(pr, pc), b))
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-10)
    assert np.array_equal(np.sort(res.perm), np.arange(n))


@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(16, 4, 2, 2), (32, 8, 2, 2), (32, 4, 4, 2), (24, 8, 2, 1)],
)
def test_pdgetrf_factorization_correct(n, b, pr, pc):
    A = randn(n, seed=n * b + pr)
    res = pdgetrf(A, ProcessGrid(pr, pc), b)
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-10)


def test_pdgetrf_matches_sequential_partial_pivoting():
    """The simulated ScaLAPACK baseline is exact partial pivoting."""
    A = randn(32, seed=3)
    res = pdgetrf(A, ProcessGrid(2, 2), 8)
    ref = getrf_partial_pivoting(A)
    assert np.array_equal(res.perm, ref.perm)
    assert np.allclose(res.L, ref.L, atol=1e-11)
    assert np.allclose(res.U, ref.U, atol=1e-11)


def test_pcalu_matches_sequential_calu_pivot_quality():
    """Distributed and sequential CALU use the same tournament, so the pivot
    growth is comparable (the exact permutation may differ in ordering of the
    non-pivot rows)."""
    A = randn(32, seed=5)
    par = pcalu(A, cfg(ProcessGrid(2, 2), 8))
    seq = calu(A, block_size=8, nblocks=2)
    assert np.max(np.abs(par.L)) < 10.0
    assert np.max(np.abs(seq.L)) < 10.0
    # The first panel sees exactly the same row blocks in both versions, so
    # its pivots (the leading b diagonal entries of U) must coincide.
    assert np.allclose(
        np.sort(np.abs(np.diag(par.U)[:8])), np.sort(np.abs(np.diag(seq.U)[:8])), rtol=1e-9
    )


def test_calu_sends_fewer_messages_than_pdgetrf():
    """The latency claim on the full factorization."""
    A = randn(64, seed=7)
    grid = ProcessGrid(2, 2)
    c = pcalu(A, cfg(grid, 8))
    s = pdgetrf(A, grid, 8)
    assert c.trace.max_messages < s.trace.max_messages
    assert c.trace.critical_path_time < s.trace.critical_path_time


def test_calu_word_volume_comparable_to_pdgetrf():
    """Bandwidth: both algorithms move a comparable number of words."""
    A = randn(64, seed=9)
    grid = ProcessGrid(2, 2)
    c = pcalu(A, cfg(grid, 8))
    s = pdgetrf(A, grid, 8)
    assert c.trace.total_words < 2.5 * s.trace.total_words


def test_pcalu_single_process_grid():
    A = randn(24, seed=11)
    res = pcalu(A, cfg(ProcessGrid(1, 1), 8))
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-11)
    assert res.trace.total_messages == 0


def test_pcalu_under_power5_machine_produces_time_and_channels():
    A = randn(48, seed=13)
    res = pcalu(A, cfg(ProcessGrid(2, 2), 8, machine="ibm_power5"))
    assert res.trace.critical_path_time > 0
    # Both row and column channels must have been exercised.
    assert res.trace.messages_by_channel("col") > 0
    assert res.trace.messages_by_channel("row") > 0


def test_block_size_not_dividing_matrix():
    A = randn(30, seed=15)
    res = pcalu(A, cfg(ProcessGrid(2, 2), 7))
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-10)
    res2 = pdgetrf(A, ProcessGrid(2, 2), 7)
    assert np.allclose(A[res2.perm, :], res2.L @ res2.U, atol=1e-10)
