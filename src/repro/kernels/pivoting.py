"""Permutation and pivot-vector utilities shared by the LU kernels.

Two representations are used throughout the package:

* an *ipiv* vector (LAPACK convention): ``ipiv[k] = r`` means that at step
  ``k`` row ``k`` was swapped with row ``r`` (``r >= k``);
* a *permutation* vector ``perm``: ``perm[i]`` is the original index of the
  row that ends up in position ``i``, i.e. ``PA = A[perm, :]``.

The helpers below convert between the two, invert and compose
permutations, and check that a vector is one.
"""

from __future__ import annotations

import numpy as np


def ipiv_to_perm(ipiv: np.ndarray, m: int) -> np.ndarray:
    """Convert a LAPACK-style swap sequence into a row permutation of length ``m``.

    Parameters
    ----------
    ipiv:
        Sequence of swap targets; ``ipiv[k]`` is swapped with row ``k``.
    m:
        Total number of rows of the matrix the swaps act on.

    Returns
    -------
    numpy.ndarray
        Integer vector ``perm`` such that applying the swaps to ``A`` gives
        ``A[perm, :]``.
    """
    perm = np.arange(m, dtype=np.int64)
    for k, r in enumerate(np.asarray(ipiv, dtype=np.int64)):
        if r != k:
            perm[[k, r]] = perm[[r, k]]
    return perm


def invert_perm(perm: np.ndarray) -> np.ndarray:
    """Return the inverse permutation of ``perm``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return inv


def compose_perms(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Compose two permutations: applying ``inner`` first, then ``outer``.

    If ``B = A[inner, :]`` and ``C = B[outer, :]`` then
    ``C = A[compose_perms(outer, inner), :]``.
    """
    inner = np.asarray(inner, dtype=np.int64)
    outer = np.asarray(outer, dtype=np.int64)
    return inner[outer]


def is_permutation(perm: np.ndarray) -> bool:
    """Return True if ``perm`` is a permutation of ``0..len(perm)-1``."""
    perm = np.asarray(perm)
    if perm.ndim != 1:
        return False
    return np.array_equal(np.sort(perm), np.arange(perm.shape[0]))
