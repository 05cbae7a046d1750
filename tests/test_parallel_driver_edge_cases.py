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


# ---------------------------------------------------------------- complex input
def _complex_reproducers():
    from repro.core import calu_solve
    from repro.harness.serving import SolveService
    from repro.parallel import pcalu_factor, pdgesv, pdgesv_solve

    n, config = 16, cfg((2, 2), 4)
    A, b = randn(n, seed=6), randn(n, 2, seed=7)
    factor = pcalu_factor(A, config)
    return {
        "pdgesv_A": ("A", lambda: pdgesv(A + 1j * A, b, config)),
        "pdgesv_b": ("b", lambda: pdgesv(A, b + 1j, config)),
        "pcalu": ("A", lambda: pcalu(A + 1j * A, config)),
        "pdgesv_solve": ("b", lambda: pdgesv_solve(factor, b + 1j, config)),
        "calu_solve": ("A", lambda: calu_solve(A + 1j * A, b, block_size=4)),
        "service_submit": ("b", lambda: SolveService(factor, start=False).submit(b + 1j)),
    }


@pytest.mark.parametrize("case", list(_complex_reproducers()))
def test_complex_input_fails_up_front_naming_it(case):
    """Casting a complex input to float64 would drop its imaginary part (and
    only warn), so every entry point rejects it first, naming the input."""
    import warnings

    name, call = _complex_reproducers()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning means the cast ran
        with pytest.raises(ValueError, match=f"^{name} is complex"):
            call()


# ------------------------------------------------------ malformed operands
def _operand_reproducers():
    from repro.core import calu_solve
    from repro.harness.serving import SolveService
    from repro.parallel import pcalu_factor, pdgesv, pdgesv_solve

    n, config = 16, cfg((2, 2), 4)
    A, b = randn(n, seed=8), randn(n, 1, seed=9)[:, 0]
    factor = pcalu_factor(A, config)
    A_nan, b_nan = A.copy(), b.copy()
    A_nan[3, 5], b_nan[11] = np.nan, np.nan
    b3, b0 = b.reshape(n, 1, 1), np.array(1.0)
    shape = "^right-hand side has shape"
    return {
        "pdgesv_3d_b": (shape, lambda: pdgesv(A, b3, config)),
        "pdgesv_0d_b": (shape, lambda: pdgesv(A, b0, config)),
        "pdgesv_nan_b": ("^b has non-finite", lambda: pdgesv(A, b_nan, config)),
        "pdgesv_rows_b": (shape, lambda: pdgesv(A, b[1:], config)),
        "pdgesv_solve_3d_b": (shape, lambda: pdgesv_solve(factor, b3, config)),
        "pdgesv_solve_0d_b": (shape, lambda: pdgesv_solve(factor, b0, config)),
        "calu_solve_nan_A": ("^A has non-finite", lambda: calu_solve(A_nan, b, block_size=4)),
        "calu_solve_nan_b": ("^b has non-finite", lambda: calu_solve(A, b_nan, block_size=4)),
        "calu_solve_3d_b": (shape, lambda: calu_solve(A, b3, block_size=4)),
        "service_submit_3d_b": (shape, lambda: SolveService(factor, start=False).submit(b3)),
    }


@pytest.mark.parametrize("case", list(_operand_reproducers()))
def test_malformed_operand_fails_up_front_naming_it(monkeypatch, case):
    """One operand check guards every solver entry point: a complex,
    non-finite or misshapen operand raises a ValueError naming it before any
    factorization runs — in ``pdgesv`` before ``pcalu_factor``, so before
    any rank starts."""
    from repro.core import solve
    from repro.distsim import vmpi
    from repro.parallel import driver, factor, psolve

    match, call = _operand_reproducers()[case]

    def never(*args, **kwargs):
        raise AssertionError("the operands were not checked first")

    for module in (vmpi, driver, psolve):
        monkeypatch.setattr(module, "run_spmd", never)
    monkeypatch.setattr(psolve, "pcalu_factor", never)
    monkeypatch.setattr(factor, "pcalu", never)
    monkeypatch.setattr(solve, "calu", never)
    with pytest.raises(ValueError, match=match):
        call()


# ----------------------------------------------------------- singular input
@pytest.mark.parametrize("pivoting", ["pp", "ca", "ca_prrp"])
@pytest.mark.parametrize("kind", ["zero_column", "all_zero"])
def test_singular_matrix_fails_once_naming_rank_and_tag(kind, pivoting):
    """An exactly singular ``A`` ends the SPMD run at the first rank that
    fails: one ``RankFailedError`` with one entry, chained from that rank's
    ``LinAlgError``, naming the rank and the tag it last yielded."""
    from repro.distsim import RankFailedError
    from repro.parallel import pdgesv

    n = 32
    A = randn(n, seed=8)
    if kind == "zero_column":
        A[:, 5] = 0.0
    else:
        A[:] = 0.0
    with pytest.raises(RankFailedError) as exc:
        pdgesv(A, randn(n, 1, seed=9), cfg((2, 2), 8, pivoting))
    err = exc.value
    assert list(err.failures) == [err.rank]
    assert isinstance(err.__cause__, np.linalg.LinAlgError)
    assert err.failures[err.rank] is err.__cause__
    assert err.tag is not None
    assert str(err).startswith(f"rank {err.rank} failed after {err.tag!r}: LinAlgError: ")


@pytest.mark.parametrize(
    "kind,pivoting,where",
    [
        ("zero_column", "pp", "rank 0 failed after (('bwd', 0), 'red', 0)"),
        ("zero_column", "ca", "rank 0 failed after ((('panel', 0), 'pswap'), 'swap', 6)"),
        ("zero_column", "ca_prrp", "rank 0 failed after ((('panel', 0), 'pswap'), 'swap', 7)"),
        ("all_zero", "pp", "rank 3 failed after (('fwd', 0), 'bc', 3)"),
    ],
    ids=["zero_column-pp", "zero_column-ca", "zero_column-ca_prrp", "all_zero-pp"],
)
def test_singular_matrix_failure_names_the_rank_that_fails(kind, pivoting, where):
    """The failure is charged where the rank's own program fails, also inside
    a triangular sweep the host evaluates as one step: under ``pp`` the
    back substitution's diagonal solve on rank 0, after the row reduction of
    block 0 (zero column), or on rank 3 at the first backward block, whose
    last collective was the forward sweep's broadcast of block 3 (all zero)."""
    from repro.distsim import RankFailedError
    from repro.parallel import pdgesv

    n = 32
    A = randn(n, seed=8)
    if kind == "zero_column":
        A[:, 5] = 0.0
    else:
        A[:] = 0.0
    with pytest.raises(RankFailedError) as exc:
        pdgesv(A, randn(n, 1, seed=9), cfg((2, 2), 8, pivoting))
    diagonal = 5 if kind == "zero_column" else 0
    assert str(exc.value) == (
        f"{where}: LinAlgError: singular matrix: resolution failed at diagonal {diagonal}"
    )
