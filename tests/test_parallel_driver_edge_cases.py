"""Edge-case tests for the distributed block-LU driver shared by CALU and PDGETRF."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import SolveConfig
from repro.parallel import pcalu
from repro.randmat import diagonally_dominant, randn

#: CALU and PDGETRF: the one driver under its two panel strategies.
DRIVERS = pytest.mark.parametrize("pivoting", [None, "pp"], ids=["pcalu", "pdgetrf"])


def cfg(grid, b, pivoting=None):
    """A run on ``grid`` with block size ``b`` (default pivoting: CALU)."""
    return SolveConfig.resolve(grid=grid, b=b, pivoting=pivoting)


@DRIVERS
def test_matrix_smaller_than_one_block(pivoting):
    """The whole matrix fits in a single panel: no trailing update at all."""
    A = randn(6, seed=1)
    res = pcalu(A, cfg((2, 2), 8, pivoting))
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-12)


@DRIVERS
def test_tall_rectangular_matrix(pivoting):
    A = randn(40, seed=2)[:, :16]
    res = pcalu(A, cfg((2, 2), 4, pivoting))
    assert res.L.shape == (40, 16)
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-11)


@DRIVERS
def test_grid_larger_than_block_rows(pivoting):
    """More process rows than block rows: some ranks own nothing at times."""
    A = randn(16, seed=3)
    res = pcalu(A, cfg((4, 2), 4, pivoting))
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-11)


@DRIVERS
def test_no_pivoting_needed_matrix(pivoting):
    """Diagonally dominant input: the factorization should barely permute."""
    A = diagonally_dominant(24, seed=4)
    res = pcalu(A, cfg((2, 2), 6, pivoting))
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-11)
    # Diagonal dominance keeps every diagonal entry the column winner.
    assert np.array_equal(res.perm, np.arange(24))


def test_wide_grid_and_tall_grid_agree_numerically():
    A = randn(36, seed=5)
    r1 = pcalu(A, cfg((1, 4), 6))
    r2 = pcalu(A, cfg((4, 1), 6))
    assert np.allclose(A[r1.perm, :], r1.L @ r1.U, atol=1e-11)
    assert np.allclose(A[r2.perm, :], r2.L @ r2.U, atol=1e-11)
    # A single process row means no column-network traffic for the panel.
    assert r1.trace.messages_by_channel("col") <= r2.trace.messages_by_channel("col")


def test_swaps_recorded_match_permutation():
    from repro.scalapack import apply_swaps_to_permutation

    A = randn(32, seed=6)
    res = pcalu(A, cfg((2, 2), 8, "pp"))
    perm = apply_swaps_to_permutation(np.arange(32), res.swaps)
    assert np.array_equal(perm, res.perm)


def test_all_ranks_return_identical_swap_lists():
    A = randn(24, seed=7)
    res = pcalu(A, cfg((2, 2), 8))
    swaps = [r["swaps"] for r in res.trace.results]
    assert all(s == swaps[0] for s in swaps)


# ------------------------------------------------------- non-finite input
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_fails_up_front_naming_it(monkeypatch, bad):
    """A NaN or infinity in ``A`` (pcalu, pcalu_factor, pdgesv) or in ``b``
    (pdgesv_solve) raises a plain ValueError naming the input before any
    rank starts."""
    from repro.distsim import vmpi
    from repro.parallel import pcalu_factor, pdgesv, pdgesv_solve
    from repro.parallel import driver, psolve

    n, config = 32, cfg((2, 2), 8)
    A = randn(n, seed=4)
    b = randn(n, 2, seed=5)
    factor = pcalu_factor(A, config)
    A_bad, b_bad = A.copy(), b.copy()
    A_bad[7, 3] = bad
    b_bad[30, 1] = bad

    def no_ranks(*args, **kwargs):
        raise AssertionError("a rank started")

    for module in (vmpi, driver, psolve):
        monkeypatch.setattr(module, "run_spmd", no_ranks)
    for call in (lambda: pcalu(A_bad, config), lambda: pcalu_factor(A_bad, config),
                 lambda: pdgesv(A_bad, b, config)):
        with pytest.raises(ValueError, match="^A has non-finite entries"):
            call()
    with pytest.raises(ValueError, match="^b has non-finite entries"):
        pdgesv_solve(factor, b_bad, config)
    with pytest.raises(ValueError, match="^b has non-finite entries"):
        pdgesv_solve(factor, b_bad[:, 1], config)
