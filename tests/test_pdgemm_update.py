"""Direct tests for the local trailing update (``pdgemm_trailing_update``).

The update has two code paths: a fast in-place path when this rank's
trailing rows/columns form contiguous local ranges, and a gather/scatter
path over ``np.ix_`` when they do not (interior panels on grids with more
block-columns than process columns).  These tests exercise the ``np.ix_``
branch directly — scattered indices, parity with the dense update, the
pluggable ``multiply=`` kernel — and through a real factorization whose
layout forces non-contiguous trailing sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distsim.vmpi import run_spmd
from repro.kernels.flops import FlopFormulas
from repro.layouts.grid import ProcessGrid
from repro.matmul.caps import strassen_multiply
from repro.randmat.generators import randn
from repro.scalapack.indexing import is_contiguous_range
from repro.scalapack.pdgemm import pdgemm_trailing_update


def _run_update(Aloc, L21, U12, rows, cols, multiply=None):
    """Drive one trailing update on a single simulated rank."""
    out = np.array(Aloc, dtype=np.float64)

    def prog(comm):
        pdgemm_trailing_update(
            comm, out, L21, U12, rows, cols, multiply=multiply
        )
        return comm.trace.flops.total

    trace = run_spmd(1, prog)
    return out, trace.results[0]


def test_scattered_indices_hit_the_ix_branch_and_match_dense():
    rng = np.random.default_rng(0)
    Aloc = rng.standard_normal((8, 9))
    rows = np.array([0, 2, 5, 7])
    cols = np.array([1, 3, 4, 8])
    assert not is_contiguous_range(rows) and not is_contiguous_range(cols)
    L21 = rng.standard_normal((rows.size, 3))
    U12 = rng.standard_normal((3, cols.size))

    expected = Aloc.copy()
    expected[np.ix_(rows, cols)] -= L21 @ U12
    out, flops = _run_update(Aloc, L21, U12, rows, cols)
    assert np.array_equal(out, expected)
    assert flops == FlopFormulas.gemm(rows.size, cols.size, 3)
    # Untouched entries are bit-identical.
    mask = np.ones_like(Aloc, dtype=bool)
    mask[np.ix_(rows, cols)] = False
    assert np.array_equal(out[mask], Aloc[mask])


def test_mixed_contiguous_rows_scattered_cols():
    rng = np.random.default_rng(1)
    Aloc = rng.standard_normal((6, 7))
    rows = np.array([2, 3, 4])  # contiguous
    cols = np.array([0, 2, 6])  # scattered -> still the ix_ branch
    L21 = rng.standard_normal((3, 2))
    U12 = rng.standard_normal((2, 3))
    expected = Aloc.copy()
    expected[np.ix_(rows, cols)] -= L21 @ U12
    out, _ = _run_update(Aloc, L21, U12, rows, cols)
    assert np.array_equal(out, expected)


def test_ix_branch_agrees_with_contiguous_branch():
    """Same sub-block through both branches gives bit-identical results."""
    rng = np.random.default_rng(2)
    Aloc = rng.standard_normal((6, 6))
    L21 = rng.standard_normal((3, 2))
    U12 = rng.standard_normal((2, 3))
    rows = np.array([1, 2, 3])
    cols = np.array([2, 3, 4])

    contiguous, _ = _run_update(Aloc, L21, U12, rows, cols)
    # Force the gather/scatter path by appending then dropping a far index.
    perm_rows = np.array([1, 2, 3, 5])
    perm_cols = np.array([0, 2, 3, 4])
    L21_wide = np.vstack([L21, np.zeros((1, 2))])
    U12_wide = np.hstack([np.zeros((2, 1)), U12])
    scattered, _ = _run_update(Aloc, L21_wide, U12_wide, perm_rows, perm_cols)
    assert np.array_equal(contiguous, scattered)


def test_empty_index_sets_are_noops():
    rng = np.random.default_rng(3)
    Aloc = rng.standard_normal((4, 4))
    out, flops = _run_update(
        Aloc, np.zeros((0, 2)), np.zeros((2, 3)), np.array([], dtype=np.int64),
        np.array([0, 1, 3]),
    )
    assert np.array_equal(out, Aloc)
    assert flops == 0


@pytest.mark.parametrize("contiguous", [True, False])
def test_multiply_kernel_plugs_into_both_branches(contiguous):
    rng = np.random.default_rng(4)
    Aloc = rng.standard_normal((18, 18))
    if contiguous:
        rows = np.arange(2, 18)
        cols = np.arange(1, 17)
    else:
        rows = np.array(sorted(rng.choice(18, size=16, replace=False)))
        cols = np.array(sorted(rng.choice(18, size=16, replace=False)))
        if is_contiguous_range(rows):
            rows[0] = (rows[0] + 1) % 18  # extremely unlikely; keep scattered
            rows = np.array(sorted(set(rows)))
    L21 = rng.standard_normal((rows.size, 16))
    U12 = rng.standard_normal((16, cols.size))

    expected = Aloc.copy()
    expected[np.ix_(rows, cols)] -= L21 @ U12
    out, flops = _run_update(Aloc, L21, U12, rows, cols,
                             multiply=strassen_multiply)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert flops > 0


def test_real_factorization_exercises_noncontiguous_trailing_sets():
    """b=4 on a 2x2 grid gives each rank interleaved block-columns, so the
    interior panels update scattered local column sets — the ix_ branch —
    and the factorization must still be exact."""
    from repro.core.options import SolveConfig
    from repro.parallel.pcalu import pcalu

    n = 48
    A = randn(n, seed=21)
    res = pcalu(A, SolveConfig.resolve(grid=(2, 2), b=4))
    err = np.max(np.abs(A[res.perm, :] - res.L @ res.U))
    assert err < 1e-12
