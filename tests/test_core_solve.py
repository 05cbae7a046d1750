"""Unit tests for the CALU-based linear solver and iterative refinement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import calu, calu_solve, lu_solve, solve_with_refinement
from repro.core.solve import componentwise_backward_error
from repro.randmat import ill_conditioned, linear_system, randn


def test_lu_solve_vector_and_matrix_rhs():
    A, b, x_true = linear_system(32, seed=1)
    res = calu(A, block_size=8, nblocks=4)
    x = lu_solve(res.L, res.U, res.perm, b)
    assert np.allclose(x, x_true, atol=1e-8)
    B = np.column_stack([b, 2 * b])
    X = lu_solve(res.L, res.U, res.perm, B)
    assert X.shape == (32, 2)
    assert np.allclose(X[:, 1], 2 * x_true, atol=1e-7)


def test_solve_with_refinement_improves_backward_error():
    A, b, _ = linear_system(64, seed=2)
    fact = calu(A, block_size=16, nblocks=4)
    res = solve_with_refinement(A, b, fact, max_iterations=2)
    assert res.backward_errors[-1] <= res.backward_errors[0] + 1e-16
    assert res.backward_errors[-1] < 1e-13


def test_refinement_stops_early_when_converged():
    A, b, _ = linear_system(32, seed=3, kind="diagonally_dominant")
    fact = calu(A, block_size=8, nblocks=2)
    res = solve_with_refinement(A, b, fact, max_iterations=5, tolerance=1e-12)
    assert res.iterations <= 2


def test_calu_solve_end_to_end():
    A, b, x_true = linear_system(48, seed=4)
    res = calu_solve(A, b, block_size=8, nblocks=4)
    assert np.allclose(res.x, x_true, atol=1e-7)


def test_componentwise_backward_error_zero_for_exact_solution():
    A = np.eye(5)
    x = np.ones(5)
    assert componentwise_backward_error(A, x, x) == 0.0


def test_solver_on_ill_conditioned_system_small_backward_error():
    """Forward error may be large, but the backward error must stay tiny."""
    A = ill_conditioned(40, cond=1e10, seed=5)
    x_true = np.ones(40)
    b = A @ x_true
    res = calu_solve(A, b, block_size=8, nblocks=4)
    assert componentwise_backward_error(A, res.x, b) < 1e-10


def test_solver_hpl_criterion_satisfied():
    from repro.stability import hpl_residuals

    A, b, _ = linear_system(96, seed=6)
    res = calu_solve(A, b, block_size=16, nblocks=4, refine=0)
    r = hpl_residuals(A, res.x, b)
    assert r.passed


def test_multi_rhs_residual_records_max_abs_entry():
    """Regression: with a matrix of right-hand sides the recorded residual
    must be the largest residual entry, not the matrix infinity norm (which
    sums |residuals| across RHS columns and overstates the error)."""
    rng = np.random.default_rng(8)
    A = randn(50, seed=8)
    B = rng.standard_normal((50, 3))
    fact = calu(A, block_size=8, nblocks=4)
    res = solve_with_refinement(A, B, fact, max_iterations=0)
    R = B - A @ res.x
    assert res.x.shape == (50, 3)
    assert res.residual_norms[0] == float(np.max(np.abs(R)))
    # The old matrix-norm recording sums |residuals| across the three RHS
    # columns — strictly larger here, which is exactly the reported bug.
    assert res.residual_norms[0] < float(np.linalg.norm(R, np.inf))


def test_single_rhs_residual_recording_unchanged():
    """For a vector RHS the max-abs entry IS the infinity norm — bit-equal."""
    A, b, _ = linear_system(32, seed=9)
    fact = calu(A, block_size=8, nblocks=2)
    res = solve_with_refinement(A, b, fact, max_iterations=1)
    r0 = b - A @ res.x
    assert res.residual_norms[-1] == float(np.linalg.norm(r0, np.inf))


def test_calu_solve_accepts_pivoting_strategy():
    A, b, x_true = linear_system(48, seed=10)
    res = calu_solve(A, b, block_size=8, nblocks=4, pivoting="ca_prrp")
    assert np.allclose(res.x, x_true, atol=1e-7)


def test_refinement_one_residual_per_step_is_bit_identical():
    """``solve_with_refinement`` forms each step's residual and ``|A|`` once;
    every recorded field must equal, bit for bit, what recomputing them at
    every use gives (the straightforward loop below), on a 3-RHS system."""
    from repro.core.solve import _max_abs_residual, _per_rhs_max_abs

    A = randn(60, seed=13)
    B = np.random.default_rng(13).standard_normal((60, 3))
    fact = calu(A, block_size=8, nblocks=4)

    x = lu_solve(fact.L, fact.U, fact.perm, B)
    residuals = [_max_abs_residual(B - A @ x)]
    per_rhs = [_per_rhs_max_abs(B - A @ x)]
    backward = [componentwise_backward_error(A, x, B)]
    for _ in range(3):
        x = x + lu_solve(fact.L, fact.U, fact.perm, B - A @ x)
        residuals.append(_max_abs_residual(B - A @ x))
        per_rhs.append(_per_rhs_max_abs(B - A @ x))
        backward.append(componentwise_backward_error(A, x, B))

    res = solve_with_refinement(A, B, fact, max_iterations=3, tolerance=0.0)
    assert res.iterations == 3
    assert np.array_equal(res.x, x)
    assert res.residual_norms == residuals
    assert res.per_rhs_residuals == per_rhs
    assert res.backward_errors == backward
    assert solve_with_refinement(A, B, fact, max_iterations=0).residual_norms == residuals[:1]
