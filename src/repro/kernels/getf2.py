"""Unblocked LU factorization with partial pivoting (LAPACK ``DGETF2`` analogue).

This is the classic right-looking, column-by-column elimination.  It is used

* as the *local* kernel of TSLU in its "classic" configuration (the ``Cl``
  columns of Tables 3 and 4 of the paper),
* at the leaves and internal nodes of the ca-pivoting tournament, where the
  matrices are small (``2b x b``),
* as the reference Gaussian elimination with partial pivoting (GEPP) for the
  stability comparison of Table 2 and Figure 2.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import lapack

from .flops import FlopCounter, FlopFormulas


class LUResult(NamedTuple):
    """Result of an in-place LU factorization.

    Attributes
    ----------
    lu:
        The factored matrix: unit-lower-triangular ``L`` below the diagonal
        (unit diagonal not stored) and ``U`` on and above the diagonal.
    ipiv:
        LAPACK-style swap vector of length ``min(m, n)``.
    perm:
        Full row permutation of length ``m`` such that ``A[perm, :] = L @ U``.
    singular:
        True if a zero pivot was encountered (the factorization is still
        returned but the corresponding column was not eliminated).
    """

    lu: np.ndarray
    ipiv: np.ndarray
    perm: np.ndarray
    singular: bool


def getf2(
    A: np.ndarray,
    flops: Optional[FlopCounter] = None,
    overwrite: bool = False,
    track_growth: Optional[list] = None,
    reference: bool = False,
) -> LUResult:
    """Factor ``A = P^T L U`` using unblocked Gaussian elimination with partial pivoting.

    Parameters
    ----------
    A:
        ``m x n`` real matrix.
    flops:
        Optional :class:`~repro.kernels.flops.FlopCounter` charged with the
        arithmetic performed.
    overwrite:
        If True, ``A`` itself is overwritten with the factors; otherwise a
        copy is made.
    track_growth:
        Optional list; if given, the maximum absolute value of the (active
        part of the) matrix after each elimination step is appended to it.
        Used by the growth-factor study (Figure 2).  Requesting it implies
        ``reference`` so the recorded values are reproducible bit-for-bit.
    reference:
        Run the per-column loop below instead of ``dgetrf``.  By default the
        factorization is delegated to ``scipy.linalg.lapack.dgetrf`` with
        closed-form flop accounting: the ledger is exact, pivot choices match
        the loop (``IDAMAX`` breaks ties towards the first maximum like
        ``numpy.argmax``), but factor entries agree to rounding only, because
        LAPACK scales by a reciprocal and vendor BLAS uses FMA.  Call sites
        whose factor bits are contractual (tournament merges, recording runs)
        pass ``True``; the tests hold ``dgetrf`` to this loop.

    Returns
    -------
    LUResult
    """
    A = np.array(A, dtype=np.float64, copy=not overwrite)
    if A.ndim != 2:
        raise ValueError("getf2 expects a 2-D array")
    m, n = A.shape
    k = min(m, n)
    if not reference and track_growth is None and k > 0:
        return _getf2_lapack(A, flops)
    ipiv = np.arange(k, dtype=np.int64)
    singular = False
    swap_buf = np.empty(n, dtype=np.float64)
    # Incremental growth tracking: after step j, row j and the multipliers of
    # column j are final; the running maximum over those frozen entries plus a
    # scan of the (just rewritten) trailing submatrix equals the full-matrix
    # maximum — later row swaps only permute entries inside already-counted
    # regions.  Same recorded values as scanning all of |A| each step, without
    # the O(m*n)-per-column full-matrix pass.
    frozen_max = 0.0

    for j in range(k):
        # Pivot search in column j, rows j..m-1.
        col = A[j:, j]
        p = int(np.argmax(np.abs(col))) + j
        ipiv[j] = p
        if flops is not None:
            flops.add_comparisons(m - j - 1)
        zero_pivot = A[p, j] == 0.0
        if zero_pivot:
            singular = True
        else:
            if p != j:
                # Buffered in-place swap: one reusable row buffer instead of
                # the two fresh row copies a fancy-index swap allocates.
                np.copyto(swap_buf, A[j])
                np.copyto(A[j], A[p])
                np.copyto(A[p], swap_buf)
            if j < m - 1:
                # Scale the multipliers.
                A[j + 1 :, j] /= A[j, j]
                if flops is not None:
                    flops.add_divides(m - j - 1)
                # Rank-1 update of the trailing matrix.
                if j < n - 1:
                    A[j + 1 :, j + 1 :] -= np.outer(A[j + 1 :, j], A[j, j + 1 :])
                    if flops is not None:
                        flops.add_muladds(2.0 * (m - j - 1) * (n - j - 1))
        if track_growth is not None:
            frozen_max = max(frozen_max, float(np.max(np.abs(A[j, :]))))
            if j < m - 1:
                frozen_max = max(frozen_max, float(np.max(np.abs(A[j + 1 :, j]))))
            if not zero_pivot:
                trailing = A[j + 1 :, j + 1 :]
                current = frozen_max
                if trailing.size:
                    current = max(current, float(np.max(np.abs(trailing))))
                track_growth.append(current)

    from .pivoting import ipiv_to_perm

    perm = ipiv_to_perm(ipiv, m)
    return LUResult(lu=A, ipiv=ipiv, perm=perm, singular=singular)


def _getf2_lapack(A: np.ndarray, flops: Optional[FlopCounter]) -> LUResult:
    """``dgetrf`` with exact closed-form flop accounting.

    ``A`` is this call's private working array (the public entry point has
    already honoured ``overwrite``); the factors are copied back into it so
    the ``lu is A`` contract of ``overwrite=True`` holds.
    """
    m, n = A.shape
    k = min(m, n)
    lu, piv, info = lapack.dgetrf(A)
    if info < 0:  # pragma: no cover - argument errors cannot happen here
        raise ValueError(f"dgetrf: illegal argument {-info}")
    A[...] = lu
    ipiv = np.asarray(piv[:k], dtype=np.int64)
    if flops is not None:
        # A zero on U's diagonal marks exactly the columns whose pivot was
        # zero at elimination time (a nonzero pivot lands on the diagonal and
        # is never touched again), i.e. the columns the reference loop skips.
        zero_cols = np.flatnonzero(np.diagonal(A)[:k] == 0.0)
        flops.merge(FlopFormulas.getf2_exact(m, n, zero_cols))
    from .pivoting import ipiv_to_perm

    perm = ipiv_to_perm(ipiv, m)
    return LUResult(lu=A, ipiv=ipiv, perm=perm, singular=bool(info > 0))


def getf2_nopivot(
    A: np.ndarray,
    flops: Optional[FlopCounter] = None,
    overwrite: bool = False,
) -> np.ndarray:
    """LU factorization *without* pivoting; returns the packed LU array.

    Used for the second phase of ca-pivoting: once the tournament has placed
    good pivot rows on the diagonal, the block is eliminated in order.  A zero
    diagonal entry is skipped (its column is left uneliminated, nothing is
    divided by it), so a singular block comes back without an error —
    callers that may feed one should check the diagonal themselves.
    """
    A = np.array(A, dtype=np.float64, copy=not overwrite)
    m, n = A.shape
    k = min(m, n)
    for j in range(k):
        if A[j, j] == 0.0:
            continue
        if j < m - 1:
            A[j + 1 :, j] /= A[j, j]
            if flops is not None:
                flops.add_divides(m - j - 1)
            if j < n - 1:
                A[j + 1 :, j + 1 :] -= np.outer(A[j + 1 :, j], A[j, j + 1 :])
                if flops is not None:
                    flops.add_muladds(2.0 * (m - j - 1) * (n - j - 1))
    return A


def split_lu(lu: np.ndarray, m: Optional[int] = None, n: Optional[int] = None):
    """Split a packed LU factor into explicit ``L`` (m x k) and ``U`` (k x n).

    ``k = min(m, n)``.  ``L`` has a unit diagonal; ``U`` is upper triangular
    (upper trapezoidal when ``n > m``).
    """
    if m is None or n is None:
        m, n = lu.shape
    k = min(m, n)
    L = np.tril(lu[:, :k], -1)
    np.fill_diagonal(L, 1.0)
    U = np.triu(lu[:k, :])
    return L, U


class PackedFactors:
    """Mixin of results whose one factor array is ``packed`` (LAPACK's layout:
    ``U`` on and above the diagonal, the multipliers of ``L`` strictly below).

    ``L`` and ``U`` are fresh arrays built on demand, so a result retains the
    factorization once; solvers read ``packed`` directly, one triangle each.
    """

    packed: np.ndarray

    @property
    def L(self) -> np.ndarray:
        """The ``m x k`` unit-lower-trapezoidal factor, ``k = min(m, n)``."""
        return split_lu(self.packed)[0]

    @property
    def U(self) -> np.ndarray:
        """The ``k x n`` upper-trapezoidal factor."""
        return split_lu(self.packed)[1]


def lu_reconstruct(result: LUResult) -> np.ndarray:
    """Rebuild ``A`` from an :class:`LUResult` (for verification)."""
    m, n = result.lu.shape
    L, U = split_lu(result.lu, m, n)
    from .pivoting import invert_perm

    PA = L @ U
    return PA[invert_perm(result.perm), :]
