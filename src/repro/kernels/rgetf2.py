"""Recursive LU factorization with partial pivoting (``RGETF2``).

This is the recursive panel factorization of Gustavson (1997) and Toledo
(1997), cited as [6] and [9] in the paper and given as Appendix B of [6].
The recursion splits the column dimension in two, factors the left half,
applies the resulting row swaps and a triangular solve to the right half,
updates, and recurses on the trailing part.  Because most of the work is
performed in matrix-matrix products it has far better cache behaviour than
the unblocked :func:`repro.kernels.getf2.getf2`, which is exactly why the
paper's TSLU uses it for the local factorization on each process (the ``Rec``
columns of Tables 3 and 4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .flops import FlopCounter, FlopFormulas
from .getf2 import LUResult, getf2
from .pivoting import ipiv_to_perm


def rgetf2(
    A: np.ndarray,
    flops: Optional[FlopCounter] = None,
    threshold: int = 8,
    overwrite: bool = False,
    reference: bool = False,
) -> LUResult:
    """Factor ``A = P^T L U`` with recursive partial-pivoting LU.

    Parameters
    ----------
    A:
        ``m x n`` matrix with ``m >= n`` (tall or square); wide matrices are
        rejected because the recursive algorithm is defined on panels.
    flops:
        Optional flop counter.
    threshold:
        Column count below which the recursion bottoms out into the unblocked
        kernel.  The classic formulation recurses down to a single column; a
        small threshold keeps the Python overhead bounded without changing
        the arithmetic.
    overwrite:
        If True the input array is overwritten with the factors.
    reference:
        Run the recursion below instead of ``dgetrf``.  By default the whole
        factorization is delegated to ``dgetrf`` (itself a blocked/recursive
        implementation), charging the closed form of the recursion's counts;
        singular inputs fall back to the recursion so the skip-singular-column
        semantics are preserved exactly.

    Returns
    -------
    LUResult
        Same contract as :func:`repro.kernels.getf2.getf2`.
    """
    A = np.array(A, dtype=np.float64, copy=not overwrite)
    m, n = A.shape
    if m < n:
        raise ValueError("rgetf2 requires m >= n (tall panel)")
    if not reference and n > 0:
        res = _rgetf2_lapack(A, flops, threshold)
        if res is not None:
            return res
    ipiv = np.arange(n, dtype=np.int64)
    singular = _rgetf2_inplace(A, ipiv, 0, flops, threshold)
    perm = ipiv_to_perm(ipiv, m)
    return LUResult(lu=A, ipiv=ipiv, perm=perm, singular=singular)


def _rgetf2_lapack(
    A: np.ndarray, flops: Optional[FlopCounter], threshold: int
) -> Optional[LUResult]:
    """Whole-panel ``dgetrf``; None when the input is singular."""
    m, n = A.shape
    lu, piv, info = lapack.dgetrf(A)
    if info > 0:
        # Singular panel: replay the reference recursion (rare, and the only
        # way to reproduce its skip-singular-column behaviour exactly).
        return None
    A[...] = lu
    ipiv = np.asarray(piv, dtype=np.int64)
    if flops is not None:
        flops.merge(FlopFormulas.rgetf2_exact(m, n, threshold))
    return LUResult(lu=A, ipiv=ipiv, perm=ipiv_to_perm(ipiv, m), singular=False)


def _rgetf2_inplace(
    A: np.ndarray,
    ipiv: np.ndarray,
    col0: int,
    flops: Optional[FlopCounter],
    threshold: int,
) -> bool:
    """Recursive worker operating on the full array ``A``.

    ``A`` here is the *remaining* submatrix view (rows already aligned); the
    swap indices written into ``ipiv`` are offset by ``col0`` so that the
    caller sees swaps relative to the original matrix.
    """
    m, n = A.shape
    if n <= threshold or n == 1:
        res = getf2(A, flops=flops, overwrite=True)
        A[...] = res.lu
        ipiv[col0 : col0 + len(res.ipiv)] = res.ipiv + col0
        return res.singular

    n1 = n // 2
    n2 = n - n1

    left = A[:, :n1]
    right = A[:, n1:]

    # Factor the left half recursively.
    singular = _rgetf2_inplace(left, ipiv, col0, flops, threshold)

    # Apply the left half's row swaps to the right half (buffered in-place
    # swaps; a fancy-index swap would allocate two fresh rows per step).
    swap_buf = np.empty(n2, dtype=np.float64)
    for k in range(n1):
        r = ipiv[col0 + k] - col0
        if r != k:
            np.copyto(swap_buf, right[k])
            np.copyto(right[k], right[r])
            np.copyto(right[r], swap_buf)

    # Triangular solve: right[:n1, :] <- L11^{-1} right[:n1, :]
    L11 = np.tril(left[:n1, :n1], -1) + np.eye(n1)
    right[:n1, :] = np.linalg.solve(L11, right[:n1, :])
    if flops is not None:
        flops.add_muladds(float(n1) * float(n1) * float(n2))

    # Trailing update: right[n1:, :] -= L21 @ right[:n1, :]
    if m > n1:
        right[n1:, :] -= left[n1:, :n1] @ right[:n1, :]
        if flops is not None:
            flops.add_muladds(2.0 * float(m - n1) * float(n1) * float(n2))

    # Recurse on the trailing (m - n1) x n2 block.
    trailing = A[n1:, n1:]
    singular2 = _rgetf2_inplace(trailing, ipiv, col0 + n1, flops, threshold)

    # The trailing recursion stored swap targets relative to its own column
    # offset (col0 + n1), which coincides with row n1 of this view, so the
    # stored values are already absolute within this view.  Apply the same
    # swaps to the left block-columns below the diagonal.
    left_buf = np.empty(n1, dtype=np.float64)
    for k in range(n2):
        idx = col0 + n1 + k
        r = ipiv[idx] - col0
        kk = n1 + k
        if r != kk:
            np.copyto(left_buf, A[kk, :n1])
            np.copyto(A[kk, :n1], A[r, :n1])
            np.copyto(A[r, :n1], left_buf)

    return singular or singular2
