"""Batched LU with partial pivoting over a stack of equally-shaped blocks.

The ca-pivoting tournament multiplies the number of small (``2b x b``)
factorizations by ``P log P`` per panel: every reduction round of
:func:`~repro.core.tournament.tournament_pivoting` performs ``P/2``
independent merges (``pow2`` redundant merges per butterfly level), and the
leaf step performs ``P`` independent block factorizations.  Running each of
those through the per-column Python loop of
:func:`~repro.kernels.getf2.getf2` makes the *local arithmetic* the wall
clock bottleneck once the communication side is simulated
(:mod:`repro.distsim`).

:func:`getf2_batched` eliminates that overhead by broadcasting the reference
elimination over a batch axis: one ``argmax`` per column finds all slab
pivots at once, one broadcast divide scales all multiplier columns, and one
broadcast multiply-subtract applies all rank-1 updates.  Because every
elementwise operation is the same IEEE operation the sequential loop
performs (division, multiply, subtract — numpy ufuncs never fuse them), the
factors, pivot choices (``argmax`` keeps the first maximum, like the loop)
and singularity handling are **bit-identical** per slab to running
:func:`~repro.kernels.getf2.getf2` on each block separately.  That is the
property the tournament needs: a batched reduction round returns exactly the
winners and ``U`` factor the sequential merges would.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .flops import FlopCounter, FlopFormulas
from .pivoting import ipiv_to_perm


class BatchedLUResult(NamedTuple):
    """Result of a batched in-place LU factorization.

    Attributes
    ----------
    lu:
        ``nb x m x n`` stack of packed factors (same convention as
        :class:`~repro.kernels.getf2.LUResult`).
    ipiv:
        ``nb x k`` LAPACK-style swap vectors, ``k = min(m, n)``.
    perm:
        ``nb x m`` full row permutations (``stack[i][perm[i], :] = L_i U_i``).
    singular:
        ``nb`` booleans; True where a zero pivot was encountered.
    zero_columns:
        ``nb x k`` booleans marking the columns whose pivot was exactly zero
        (the columns the reference loop skips); used for exact per-slab flop
        accounting.
    """

    lu: np.ndarray
    ipiv: np.ndarray
    perm: np.ndarray
    singular: np.ndarray
    zero_columns: np.ndarray


def getf2_batched(
    stack: np.ndarray,
    flops: Optional[FlopCounter] = None,
    overwrite: bool = False,
) -> BatchedLUResult:
    """Factor every slab of an ``nb x m x n`` stack with partial pivoting.

    Bit-identical, slab for slab, to calling
    :func:`~repro.kernels.getf2.getf2` on each ``stack[i]`` with
    ``reference=True`` — including pivot tie-breaking and the skip-and-continue
    handling of exactly singular columns.  ``flops`` is charged with the sum
    of the per-slab reference counts of :func:`slab_flop_counters`.
    """
    A = np.array(stack, dtype=np.float64, copy=not overwrite)
    if A.ndim != 3:
        raise ValueError("getf2_batched expects an nb x m x n stack")
    nb, m, n = A.shape
    k = min(m, n)
    ipiv = np.empty((nb, k), dtype=np.int64)
    zero_columns = np.zeros((nb, k), dtype=bool)
    bidx = np.arange(nb)
    # Flat workspace for the rank-1 products: sliced-and-reshaped views stay
    # C-contiguous, so the multiply writes sequentially and nothing is
    # allocated per column.
    work = np.empty(nb * (m - 1) * (n - 1)) if (m > 1 and n > 1) else None

    for j in range(k):
        # Pivot search in column j of every slab (first maximum, like argmax
        # in the sequential loop).
        p = np.argmax(np.abs(A[:, j:, j]), axis=1)
        p += j
        ipiv[:, j] = p
        piv = A[bidx, p, j]
        zero = piv == 0.0
        any_zero = bool(zero.any())

        # Swap rows j and p in the slabs that need it (zero-pivot slabs skip
        # the swap, exactly like the reference loop's ``continue``).
        do = p != j
        if any_zero:
            zero_columns[:, j] = zero
            do &= ~zero
        if do.any():
            src = bidx[do]
            rows = p[do]
            buf = A[src, rows, :]  # fancy indexing already yields a copy
            A[src, rows, :] = A[src, j, :]
            A[src, j, :] = buf

        if j < m - 1:
            if not any_zero:
                cols = A[:, j + 1 :, j]
                cols /= piv[:, None]
                if j < n - 1:
                    w = work[: nb * (m - j - 1) * (n - j - 1)].reshape(
                        nb, m - j - 1, n - j - 1
                    )
                    # One rounded multiply per element, then a rounded
                    # subtract — the exact operation pair of the reference
                    # rank-1 update (einsum with distinct output subscripts
                    # never accumulates).
                    np.einsum("bi,bo->bio", cols, A[:, j, j + 1 :], out=w)
                    A[:, j + 1 :, j + 1 :] -= w
            else:
                live = np.flatnonzero(~zero)
                if live.size:
                    A[live, j + 1 :, j] /= piv[live, None]
                    if j < n - 1:
                        A[live, j + 1 :, j + 1 :] -= (
                            A[live, j + 1 :, j, None] * A[live, None, j, j + 1 :]
                        )

    if flops is not None:
        for counter in slab_flop_counters(m, n, zero_columns):
            flops.merge(counter)

    return BatchedLUResult(
        lu=A,
        ipiv=ipiv,
        perm=_batched_ipiv_to_perm(ipiv, m),
        singular=zero_columns.any(axis=1),
        zero_columns=zero_columns,
    )


def _batched_ipiv_to_perm(ipiv: np.ndarray, m: int) -> np.ndarray:
    """Vectorized :func:`~repro.kernels.pivoting.ipiv_to_perm` over a batch.

    One small vectorized swap per column instead of ``nb`` Python loops.
    """
    nb, k = ipiv.shape
    perm = np.tile(np.arange(m, dtype=np.int64), (nb, 1))
    bidx = np.arange(nb)
    for j in range(k):
        r = ipiv[:, j]
        sel = r != j
        if sel.any():
            rows = bidx[sel]
            rs = r[sel]
            tmp = perm[rows, j]  # fancy indexing copies
            perm[rows, j] = perm[rows, rs]
            perm[rows, rs] = tmp
    return perm


def slab_flop_counters(
    m: int, n: int, zero_columns: np.ndarray
) -> List[FlopCounter]:
    """Per-slab reference flop counts for a batched factorization.

    ``zero_columns`` is the array returned by :func:`getf2_batched`; each
    returned counter equals what :func:`~repro.kernels.getf2.getf2` would
    have charged for that slab alone.
    """
    zero_columns = np.asarray(zero_columns, dtype=bool)
    return [
        FlopFormulas.getf2_exact(m, n, np.flatnonzero(zc)) for zc in zero_columns
    ]


def batch_by_shape(shapes: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Indices of the blocks worth one batched call, grouped by ``(m, n)`` shape.

    Returns the groups of two or more equal, non-degenerate shapes, in
    first-seen order; callers send every index not returned (stray shapes,
    empty blocks) through their sequential path.
    """
    groups: dict = {}
    for i, shape in enumerate(shapes):
        if len(shape) == 2 and all(shape):
            groups.setdefault(tuple(shape), []).append(i)
    return [idxs for idxs in groups.values() if len(idxs) > 1]
