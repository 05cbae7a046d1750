"""Reproducible test-matrix generators for the stability and performance studies.

The paper's stability experiments (Section 6.1) use matrices "from a normal
distribution with varying size from 1024 to 8192" and mention that similar
results were obtained for "matrices following different random distributions,
dense Toeplitz matrices".  The generators below cover those families plus a
few extra classes (diagonally dominant, ill-conditioned, rank-deficient) used
by the test suite to probe edge cases, and the exact 16 x 2 matrix of the
worked TSLU example in Figure 1 / Section 3.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import toeplitz


def default_rng(seed: Optional[int] = 0) -> np.random.Generator:
    """The package-wide random generator factory (PCG64, fixed seed by default)."""
    return np.random.default_rng(seed)


def randn(n: int, m: Optional[int] = None, seed: Optional[int] = 0) -> np.ndarray:
    """Standard-normal ``n x m`` matrix (the paper's main stability workload)."""
    m = n if m is None else m
    return default_rng(seed).standard_normal((n, m))


def uniform(n: int, m: Optional[int] = None, seed: Optional[int] = 0) -> np.ndarray:
    """Uniform(-1, 1) ``n x m`` matrix (an alternative random distribution)."""
    m = n if m is None else m
    return default_rng(seed).uniform(-1.0, 1.0, size=(n, m))


def toeplitz_random(n: int, seed: Optional[int] = 0) -> np.ndarray:
    """Dense Toeplitz matrix with standard-normal first row/column."""
    rng = default_rng(seed)
    c = rng.standard_normal(n)
    r = rng.standard_normal(n)
    r[0] = c[0]
    return toeplitz(c, r)


def diagonally_dominant(n: int, seed: Optional[int] = 0) -> np.ndarray:
    """Strictly row-diagonally-dominant random matrix (no pivoting needed)."""
    rng = default_rng(seed)
    A = rng.standard_normal((n, n))
    A += np.diag(np.sum(np.abs(A), axis=1) + 1.0)
    return A


def ill_conditioned(n: int, cond: float = 1.0e10, seed: Optional[int] = 0) -> np.ndarray:
    """Random matrix with prescribed 2-norm condition number ``cond``."""
    rng = default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0.0, -np.log10(cond), n)
    return (U * s) @ V.T


def rank_deficient(n: int, rank: int, seed: Optional[int] = 0) -> np.ndarray:
    """Random ``n x n`` matrix of the given rank (< n) for edge-case tests."""
    if not (0 <= rank <= n):
        raise ValueError("rank must be between 0 and n")
    rng = default_rng(seed)
    B = rng.standard_normal((n, rank))
    C = rng.standard_normal((rank, n))
    return B @ C


def tall_skinny(m: int, b: int, seed: Optional[int] = 0) -> np.ndarray:
    """Standard-normal ``m x b`` panel (the TSLU workload of Tables 3-4)."""
    return default_rng(seed).standard_normal((m, b))


def figure1_matrix() -> np.ndarray:
    """The exact 16 x 2 matrix of the paper's worked TSLU example (Figure 1).

    The paper writes it transposed::

        A = [ 2 0 2 0 0 1 2 0 2 1 4 1 0 0 1 4
              4 1 0 0 1 4 1 2 0 2 1 0 0 2 0 2 ]^T

    It is distributed over 4 processes with a 1-D block-cyclic layout of
    2 x 2 blocks, so rows (1, 2, 9, 10) in 1-based numbering live on process
    0, etc.  The tournament selects the same pivot rows as Gaussian
    elimination with partial pivoting on this example.
    """
    col0 = [2, 0, 2, 0, 0, 1, 2, 0, 2, 1, 4, 1, 0, 0, 1, 4]
    col1 = [4, 1, 0, 0, 1, 4, 1, 2, 0, 2, 1, 0, 0, 2, 0, 2]
    return np.array([col0, col1], dtype=np.float64).T


#: The square matrix families a linear system or a cached factor may name.
KINDS = {
    "randn": randn,
    "uniform": uniform,
    "toeplitz": toeplitz_random,
    "diagonally_dominant": diagonally_dominant,
}


def square_matrix(kind: str, n: int, seed: Optional[int] = 0) -> np.ndarray:
    """The ``n x n`` matrix of family ``kind`` (one of :data:`KINDS`)."""
    if kind not in KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}; choose from {sorted(KINDS)}")
    return KINDS[kind](n, seed=seed)


def linear_system(
    n: int, seed: Optional[int] = 0, kind: str = "randn"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate a linear system ``A x = b`` with known solution.

    Returns ``(A, b, x_true)`` where ``x_true`` is a vector of ones, the
    convention used by the HPL benchmark whose residual tests the paper
    reuses.
    """
    A = square_matrix(kind, n, seed=seed)
    x_true = np.ones(n)
    b = A @ x_true
    return A, b, x_true
