"""Tests for the matrix generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.randmat import (
    diagonally_dominant,
    figure1_matrix,
    ill_conditioned,
    linear_system,
    randn,
    rank_deficient,
    tall_skinny,
    toeplitz_random,
    uniform,
)


def test_randn_reproducible_and_shape():
    assert np.array_equal(randn(8, seed=1), randn(8, seed=1))
    assert randn(4, 6, seed=2).shape == (4, 6)


def test_uniform_range():
    A = uniform(32, seed=3)
    assert A.min() >= -1.0 and A.max() <= 1.0


def test_toeplitz_structure():
    A = toeplitz_random(16, seed=4)
    for k in range(-15, 16):
        assert np.allclose(np.diag(A, k), np.diag(A, k)[0])


def test_diagonally_dominant_property():
    A = diagonally_dominant(24, seed=5)
    off = np.sum(np.abs(A), axis=1) - np.abs(np.diag(A))
    assert np.all(np.abs(np.diag(A)) > off)


def test_ill_conditioned_condition_number():
    A = ill_conditioned(32, cond=1e8, seed=6)
    assert np.linalg.cond(A) == pytest.approx(1e8, rel=0.1)


def test_rank_deficient_rank():
    A = rank_deficient(20, rank=7, seed=7)
    assert np.linalg.matrix_rank(A) == 7
    with pytest.raises(ValueError):
        rank_deficient(5, rank=9)


def test_tall_skinny_shape():
    assert tall_skinny(100, 8, seed=8).shape == (100, 8)


def test_figure1_matrix_matches_paper():
    A = figure1_matrix()
    assert A.shape == (16, 2)
    assert A[0, 0] == 2 and A[0, 1] == 4
    assert A[10, 0] == 4 and A[10, 1] == 1
    assert A[15, 0] == 4 and A[15, 1] == 2


def test_linear_system_consistency():
    A, b, x = linear_system(16, seed=9)
    assert np.allclose(A @ x, b)
    with pytest.raises(ValueError):
        linear_system(8, kind="unknown")


def test_linear_system_unknown_kind_names_the_kinds():
    with pytest.raises(ValueError) as excinfo:
        linear_system(8, kind="hilbert")
    assert str(excinfo.value) == (
        "unknown matrix kind 'hilbert'; choose from "
        "['diagonally_dominant', 'randn', 'toeplitz', 'uniform']"
    )


@pytest.mark.parametrize("kind", ["randn", "uniform", "toeplitz", "diagonally_dominant"])
def test_linear_system_kinds(kind):
    A, b, x = linear_system(12, seed=10, kind=kind)
    assert A.shape == (12, 12)
    assert np.allclose(A @ x, b)
