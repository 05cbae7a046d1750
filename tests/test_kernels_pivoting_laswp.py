"""Unit tests for permutation utilities, LASWP, TRSM and GEMM wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    FlopCounter,
    compose_perms,
    gemm,
    gemm_update,
    getf2,
    invert_perm,
    ipiv_to_perm,
    is_permutation,
    laswp,
    trsm_lower_unit,
    trsm_right_upper,
    trsm_upper,
)
from repro.randmat import randn


# --------------------------------------------------------------- permutations
def test_ipiv_to_perm_matches_explicit_swaps():
    A = randn(8, 3, seed=1)
    res = getf2(A)
    B = A.copy()
    laswp(B, res.ipiv)
    assert np.allclose(B, A[res.perm, :])


def test_invert_perm_roundtrip():
    rng = np.random.default_rng(5)
    perm = rng.permutation(20)
    inv = invert_perm(perm)
    assert np.array_equal(perm[inv], np.arange(20))
    assert np.array_equal(inv[perm], np.arange(20))


def test_compose_perms_is_sequential_application():
    rng = np.random.default_rng(7)
    p1 = rng.permutation(10)
    p2 = rng.permutation(10)
    A = randn(10, 4, seed=3)
    assert np.allclose(A[compose_perms(p2, p1), :], A[p1, :][p2, :])


@pytest.mark.parametrize(
    "candidate,expected",
    [([0, 1, 2], True), ([1, 1, 2], False), ([2, 1, 0], True), ([[0, 1]], False)],
)
def test_is_permutation(candidate, expected):
    assert is_permutation(np.array(candidate)) is expected


# ----------------------------------------------------------------------- laswp
def test_laswp_with_offset_matches_panel_semantics():
    A = randn(12, 5, seed=4)
    panel = A[4:, :2]
    res = getf2(panel)
    ref = A.copy()
    ref[4:, :] = ref[4:, :][res.perm, :]
    swapped = A.copy()
    laswp(swapped, res.ipiv, offset=4)
    # laswp applies swaps sequentially; the result must equal applying the
    # full permutation to the trailing rows.
    assert np.allclose(swapped[4:, 2:], ref[4:, 2:])


def test_laswp_forward_backward_roundtrip():
    A = randn(10, 3, seed=6)
    ipiv = np.array([4, 3, 2])
    B = A.copy()
    laswp(B, ipiv)
    laswp(B, ipiv, forward=False)
    assert np.allclose(B, A)


# ------------------------------------------------------------------ trsm/gemm
def test_trsm_lower_unit_solves():
    L = np.tril(randn(6, 6, seed=8), -1) + np.eye(6)
    X = randn(6, 4, seed=9)
    B = L @ X
    assert np.allclose(trsm_lower_unit(L, B), X, atol=1e-12)


def test_trsm_upper_solves():
    U = np.triu(randn(6, 6, seed=10)) + 5 * np.eye(6)
    X = randn(6, 3, seed=11)
    assert np.allclose(trsm_upper(U, U @ X), X, atol=1e-10)


def test_trsm_right_upper_solves():
    U = np.triu(randn(5, 5, seed=12)) + 5 * np.eye(5)
    X = randn(8, 5, seed=13)
    B = X @ U
    assert np.allclose(trsm_right_upper(U, B), X, atol=1e-10)


def test_gemm_and_update_count_flops():
    f = FlopCounter()
    A = randn(4, 6, seed=1)
    B = randn(6, 5, seed=2)
    C = randn(4, 5, seed=3)
    out = gemm(A, B, flops=f)
    assert np.allclose(out, A @ B)
    assert f.muladds == pytest.approx(2 * 4 * 5 * 6)
    before = C.copy()
    gemm_update(C, A, B, flops=f)
    assert np.allclose(C, before - A @ B)


def test_gemm_update_alpha_plus_one():
    A = randn(3, 3, seed=4)
    B = randn(3, 3, seed=5)
    C = np.zeros((3, 3))
    gemm_update(C, A, B, alpha=1.0)
    assert np.allclose(C, A @ B)


def test_flop_counter_merge_and_total():
    a = FlopCounter(muladds=10, divides=2, comparisons=1)
    b = FlopCounter(muladds=5, divides=1)
    a.merge(b)
    assert a.muladds == 15 and a.divides == 3
    assert a.total == 18
    c = a + b
    assert c.muladds == 20
    a.reset()
    assert a.total == 0
