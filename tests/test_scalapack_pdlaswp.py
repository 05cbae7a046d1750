"""Tests for the distributed row-swap helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distsim import run_spmd
from repro.layouts import BlockCyclic2D, ProcessGrid
from repro.randmat import randn
from repro.scalapack import apply_swaps_to_permutation, winners_to_swaps
from repro.scalapack.pdlaswp import pdlaswp


@pytest.mark.parametrize(
    "j0,winners",
    [
        (0, [5, 3, 9]),
        (2, [2, 3, 4]),          # already in place: no swaps needed
        (0, [1, 0]),             # winners displace each other
        (4, [10, 4, 6, 11]),     # mix of in-place and moves
    ],
)
def test_winners_to_swaps_places_winners_at_target(j0, winners):
    m = 16
    perm = apply_swaps_to_permutation(np.arange(m), winners_to_swaps(j0, winners))
    assert list(perm[j0 : j0 + len(winners)]) == winners


def test_winners_to_swaps_empty():
    assert winners_to_swaps(0, []) == []


def test_winners_already_at_top_produce_no_swaps():
    assert winners_to_swaps(3, [3, 4, 5]) == []


@pytest.mark.parametrize("pr,pc,b", [(2, 2, 2), (4, 2, 3), (2, 3, 4)])
def test_pdlaswp_matches_sequential_swaps(pr, pc, b):
    m, n = 24, 20
    A = randn(m, n, seed=pr * 10 + pc)
    grid = ProcessGrid(pr, pc)
    dist = BlockCyclic2D(m, n, b, grid)
    swaps = winners_to_swaps(0, [7, 13, 2, 9])
    locals_ = dist.scatter(A)

    def prog(comm):
        Aloc = locals_[comm.rank].copy()
        myrow, mycol = grid.coords(comm.rank)
        cols = np.arange(dist.local_cols(mycol).shape[0])
        yield from pdlaswp(comm, dist, Aloc, swaps, cols, tag="t")
        return Aloc

    trace = run_spmd(grid.size, prog)
    gathered = dist.gather({r: res for r, res in enumerate(trace.results)})

    expected = A.copy()
    for r1, r2 in swaps:
        expected[[r1, r2], :] = expected[[r2, r1], :]
    assert np.allclose(gathered, expected)


def test_pdlaswp_subset_of_columns_only():
    m, n, b = 12, 8, 2
    grid = ProcessGrid(2, 1)
    dist = BlockCyclic2D(m, n, b, grid)
    A = randn(m, n, seed=3)
    locals_ = dist.scatter(A)
    swaps = [(0, 5)]

    def prog(comm):
        Aloc = locals_[comm.rank].copy()
        # Swap only the first two local columns.
        yield from pdlaswp(comm, dist, Aloc, swaps, np.array([0, 1]), tag="t")
        return Aloc

    trace = run_spmd(grid.size, prog)
    gathered = dist.gather({r: res for r, res in enumerate(trace.results)})
    expected = A.copy()
    expected[[0, 5], :2] = expected[[5, 0], :2]
    assert np.allclose(gathered, expected)
