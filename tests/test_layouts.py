"""Unit tests for process grids and block / block-cyclic layouts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import Block1D, BlockCyclic1D, BlockCyclic2D, ProcessGrid
from repro.randmat import randn


# ------------------------------------------------------------------ ProcessGrid
def test_grid_rank_coords_roundtrip():
    grid = ProcessGrid(3, 4)
    for r in range(grid.size):
        gr, gc = grid.coords(r)
        assert grid.rank(gr, gc) == r


def test_grid_row_and_column_ranks_partition_all_ranks():
    grid = ProcessGrid(2, 4)
    all_from_rows = sorted(r for i in range(grid.nprow) for r in grid.row_ranks(i))
    all_from_cols = sorted(r for j in range(grid.npcol) for r in grid.column_ranks(j))
    assert all_from_rows == list(range(8))
    assert all_from_cols == list(range(8))


@pytest.mark.parametrize("p,expected", [(4, (2, 2)), (8, (2, 4)), (16, (4, 4)), (6, (2, 3)), (7, (1, 7))])
def test_grid_default_shapes(p, expected):
    grid = ProcessGrid.default_for(p)
    assert (grid.nprow, grid.npcol) == expected
    assert grid.size == p


def test_grid_invalid_inputs():
    with pytest.raises(ValueError):
        ProcessGrid(0, 2)
    grid = ProcessGrid(2, 2)
    with pytest.raises(ValueError):
        grid.coords(4)
    with pytest.raises(ValueError):
        grid.rank(2, 0)


# ---------------------------------------------------------------------- Block1D
@pytest.mark.parametrize("m,p", [(16, 4), (17, 4), (5, 8), (1, 1), (100, 7)])
def test_block1d_partition_covers_all_rows(m, p):
    dist = Block1D(m, p)
    rows = np.concatenate([dist.rows_of(i) for i in range(p)])
    assert np.array_equal(np.sort(rows), np.arange(m))


def test_block1d_owner_consistent_with_rows_of():
    """Row ``i`` lives on process ``min(i // ceil(m / P), P - 1)``."""
    dist = Block1D(23, 5)
    for i in range(23):
        assert i in dist.rows_of(min(i // 5, 4))


def test_block1d_local_global_roundtrip():
    """Process ``p``'s ``li``-th row is ``p * ceil(m / P) + li``."""
    dist = Block1D(20, 3)
    for p in range(3):
        for li, g in enumerate(dist.rows_of(p)):
            assert g == p * 7 + li


# ---------------------------------------------------------------- BlockCyclic1D
@pytest.mark.parametrize("m,b,p", [(16, 2, 4), (30, 4, 3), (10, 3, 4), (64, 8, 8)])
def test_block_cyclic1d_partition_covers_all_rows(m, b, p):
    dist = BlockCyclic1D(m, b, p)
    rows = np.concatenate([dist.rows_of(i) for i in range(p)])
    assert np.array_equal(np.sort(rows), np.arange(m))


def test_block_cyclic1d_figure1_layout():
    """Process 0 owns rows 0,1,8,9 (the paper's 1st, 2nd, 9th, 10th rows)."""
    dist = BlockCyclic1D(16, 2, 4)
    assert np.array_equal(dist.rows_of(0), [0, 1, 8, 9])
    assert np.array_equal(dist.rows_of(3), [6, 7, 14, 15])


def test_block_cyclic1d_local_global_roundtrip():
    """Process ``p``'s ``li``-th row is row ``li % b`` of its ``li // b``-th
    block, the global block ``(li // b) P + p``."""
    dist = BlockCyclic1D(30, 4, 3)
    for p in range(3):
        for li, g in enumerate(dist.rows_of(p)):
            assert g == ((li // 4) * 3 + p) * 4 + li % 4


def test_block_cyclic1d_out_of_range_errors():
    dist = BlockCyclic1D(10, 2, 2)
    assert 10 not in np.concatenate([dist.rows_of(p) for p in range(2)])
    for p in (2, -1):
        with pytest.raises(ValueError):
            dist.rows_of(p)


# ---------------------------------------------------------------- BlockCyclic2D
@pytest.mark.parametrize("m,n,b,pr,pc", [(16, 16, 4, 2, 2), (20, 12, 3, 2, 3), (9, 9, 2, 2, 2), (32, 32, 8, 4, 2)])
def test_block_cyclic2d_scatter_gather_roundtrip(m, n, b, pr, pc):
    dist = BlockCyclic2D(m, n, b, ProcessGrid(pr, pc))
    A = randn(m, n, seed=m * n)
    locals_ = dist.scatter(A)
    assert np.allclose(dist.gather(locals_), A)


def test_block_cyclic2d_local_shapes_sum_to_total():
    dist = BlockCyclic2D(20, 14, 3, ProcessGrid(2, 3))
    total = sum(
        len(dist.local_rows(pr)) * len(dist.local_cols(pc))
        for pr in range(dist.grid.nprow)
        for pc in range(dist.grid.npcol)
    )
    assert total == 20 * 14


def test_block_cyclic2d_owner_and_index_maps_agree():
    dist = BlockCyclic2D(18, 18, 4, ProcessGrid(2, 2))
    for i in range(18):
        for j in range(0, 18, 5):
            pr, pc = (i // 4) % 2, (j // 4) % 2  # block (I, J) lives on (I mod Pr, J mod Pc)
            assert i in dist.local_rows(pr)
            assert j in dist.local_cols(pc)
            li = dist.global_to_local_row(i)
            assert dist.local_rows(pr)[li] == i
            lj = dist.global_to_local_col(j)
            assert dist.local_cols(pc)[lj] == j


def test_block_cyclic2d_gather_shape_mismatch_raises():
    dist = BlockCyclic2D(8, 8, 2, ProcessGrid(2, 2))
    locals_ = dist.scatter(randn(8, seed=1))
    locals_[0] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        dist.gather(locals_)


def test_block_cyclic2d_block_counts():
    dist = BlockCyclic2D(10, 7, 3, ProcessGrid(2, 2))
    assert dist.num_block_rows() == 4
    assert dist.num_block_cols() == 3


def test_block_cyclic2d_block_local_ranges_match_the_per_entry_maps():
    """The closed-form local indices of one block's rows/columns equal the
    per-entry maps the drivers used to loop over, ragged last block included."""
    dist = BlockCyclic2D(29, 23, 4, ProcessGrid(3, 2))
    for extent, closed_form, per_entry in (
        (dist.m, dist.block_local_rows, dist.global_to_local_row),
        (dist.n, dist.block_local_cols, dist.global_to_local_col),
    ):
        for start in range(0, extent, dist.block):
            width = min(dist.block, extent - start)
            got = closed_form(start, width)
            assert got.dtype == np.int64
            assert got.tolist() == [per_entry(g) for g in range(start, start + width)]
        assert closed_form(5, 0).size == 0
        with pytest.raises(ValueError, match="more than one block"):
            closed_form(2, 4)
