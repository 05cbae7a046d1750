"""Strong rank-revealing QR: the panel selection kernel of CALU_PRRP.

Khabou, Demmel, Grigori and Gu ("LU factorization with panel rank revealing
pivoting and its communication avoiding version", arXiv:1208.2451) replace the
partial-pivoting selection inside the ca-pivoting tournament with a *strong
rank-revealing QR* (Gu-Eisenstat) of the transposed block: to pick ``b`` pivot
rows of an ``m x b`` block ``W``, factor

    W^T P  =  Q [R11 R12],        P a column permutation of W^T,

where the strong-RRQR column threshold ``tau`` guarantees

    max |R11^{-1} R12|  <=  tau.

The selected columns of ``W^T`` are rows of ``W``; writing ``P^T W = [W1; W2]``
(``W1`` the selected rows) gives ``W1 = (Q R11)^T`` and

    L21 = W2 W1^{-1} = W2 (Q R11)^{-T} = (R11^{-1} R12)^T,

so every multiplier of the panel elimination is bounded by ``tau`` — the bound
behind PRRP's ``(1 + 2b)^(n/b)`` worst-case growth, versus ``2^(n-1)`` for
partial pivoting and ``2^(n(log2 P + 1))``-ish for plain ca-pivoting.

This module provides the row selection the tournament uses
(:func:`select_rows_rrqr`) and the factorization (:func:`rrqr`) it is checked
against.  CALU_PRRP here uses the selection only.

What is contractual is the *selection* (which rows, in which order) and the
*flop ledger* — nothing else of the factorization leaves
:func:`select_rows_rrqr`, and the tournament gathers the selected rows from
the original block.  The selection runs one fast path that verifies its own
answer and falls back to the reference:

* The reference is the Householder / Businger-Golub loop below (plain
  NumPy, ties towards the lowest index) followed by the Gu-Eisenstat
  strengthening loop (:func:`_strong_rrqr`).  :func:`rrqr` always runs it
  and accumulates ``Q``; the selection runs the same arithmetic on ``R``
  alone.
* The selection first takes the pivots of ``dgeqp3`` and *verifies* them on
  the factor that produced them: every pivot must have been the greedy
  choice by a clear margin (:data:`PIVOT_GAP`, which is also a numerical-rank
  guard on ``diag(R11)``), and ``max |R11^{-1} R12| <= tau`` — the reference
  loop's own acceptance test — must hold.  A block that fails either (ties
  between duplicate rows, rank deficiency, a violated threshold, a zero
  block, ``info != 0``) is handed to the reference kernel, swap loop
  included.  So the ``tau`` bound is checked on every selection, and the two
  kernels cannot rank columns differently within rounding.

The ledger charges what the reference algorithm performs, *including* the
``Q`` update the selection never reads and ``dgeqp3`` never executes
(:meth:`~repro.kernels.flops.FlopFormulas.rrqr_select_exact` is the loop's
count in closed form), so simulated costs do not depend on which kernel
answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import lapack

from .flops import FlopCounter, FlopFormulas

#: Default strong-RRQR column threshold.  ``tau >= 1`` is required for the
#: swap loop to terminate; the Khabou et al. experiments use a small constant
#: (their ``f``); 2.0 keeps every PRRP multiplier at most 2 in magnitude.
DEFAULT_TAU = 2.0

#: Hard cap on Gu-Eisenstat strengthening swaps (each swap grows
#: ``|det(R11)|`` by at least ``tau``, so ``~n log(kappa)/log(tau)`` bounds the
#: count; in practice QR-with-column-pivoting already satisfies the threshold
#: and zero swaps are performed).
MAX_SWAPS_PER_COLUMN = 8

#: The selection believes a ``dgeqp3`` pivot only if its squared trailing norm
#: beat every rival's (for the last pivot of a square ``R11``: zero) by more
#: than ``PIVOT_GAP`` times the largest squared column norm.  Either kernel's
#: norms carry a rounding error of roughly ``k * eps`` of that (1e-14 at
#: k = 64), so four orders of margin mean the reference loop ranks the columns
#: alike; ties and pivots picked among rounding noise — where LAPACK's
#: downdated norms and position-dependent BLAS kernels do not reproduce the
#: reference's lowest-index tie-break — fail it.  On the pivots themselves it
#: is the numerical-rank guard ``|R[k-1, k-1]| > 1e-6 |R[0, 0]|``.
PIVOT_GAP = 1.0e-12


@dataclass
class RRQRResult:
    """A (strong) rank-revealing QR factorization of ``A``.

    With the default ``k = min(m, n)`` the factorization is complete:
    ``A[:, perm] = Q @ R`` exactly.  With a smaller requested ``k`` only the
    first ``k`` reflector steps run, so the result is *partial*: the selected
    columns are still exact (``A[:, perm[:k]] = Q @ R[:, :k]``), while the
    trailing columns of ``R`` hold their projection onto ``range(Q)`` only —
    ``interaction`` is then the projected interaction matrix, which is the
    bound quantity of strong RRQR only when ``k >= rank(A)``.

    Attributes
    ----------
    Q:
        ``m x k`` matrix with orthonormal columns.
    R:
        ``k x n`` upper-triangular (trapezoidal) factor.
    perm:
        Column permutation (global indices into the original columns); the
        first ``k`` entries are the selected columns in selection order.
    k:
        Number of factored columns.
    swaps:
        Number of Gu-Eisenstat strengthening swaps performed beyond plain QR
        with column pivoting (0 in the overwhelmingly common case).
    interaction:
        ``R11^{-1} R12`` (``k x (n-k)``), the matrix the strong-RRQR
        threshold bounds; ``None`` when ``n == k`` or ``R11`` is singular.
    """

    Q: np.ndarray
    R: np.ndarray
    perm: np.ndarray
    k: int
    swaps: int
    interaction: Optional[np.ndarray]


def _householder_qr(
    A: np.ndarray,
    k: int,
    flops: Optional[FlopCounter],
    pivot: bool = True,
    want_q: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Householder QR of ``A``, optionally with column pivoting (Businger-Golub).

    Returns ``(Q, R, perm)`` with ``A[:, perm] = Q @ R`` and (when ``pivot``)
    the first ``k`` columns chosen greedily by trailing norm.  Ties break
    towards the lowest column index (``np.argmax`` semantics), which keeps the
    selection deterministic and matches the tie-breaking of the
    partial-pivoting kernels.  Without ``want_q`` the reflectors are applied
    to ``R`` only and ``Q`` is ``None``; ``R``, ``perm`` and the flop charges
    (which always include the ``Q`` update) are the same either way.
    """
    m, n = A.shape
    R = np.array(A, dtype=np.float64)
    Q = np.eye(m, dtype=np.float64) if want_q else None
    perm = np.arange(n, dtype=np.int64)

    for j in range(k):
        if pivot:
            # Greedy pivot: trailing column with the largest norm below row j.
            tails = R[j:, j:]
            norms2 = np.einsum("ij,ij->j", tails, tails)
            if flops is not None:
                flops.add_muladds(2.0 * tails.size)
                flops.add_comparisons(float(max(norms2.size - 1, 0)))
            p = j + int(np.argmax(norms2))
            if p != j:
                R[:, [j, p]] = R[:, [p, j]]
                perm[[j, p]] = perm[[p, j]]
            col_norm2 = float(norms2[p - j])
        else:
            col_norm2 = float(R[j:, j] @ R[j:, j])
            if flops is not None:
                flops.add_muladds(2.0 * (m - j))
        if col_norm2 == 0.0:
            if pivot:
                # Remaining columns are exactly zero: R is already triangular.
                break
            continue
        # Householder reflector annihilating R[j+1:, j].
        x = R[j:, j]
        alpha = -np.sign(x[0]) * np.sqrt(col_norm2) if x[0] != 0.0 else -np.sqrt(
            col_norm2
        )
        v = x.copy()
        v[0] -= alpha
        vnorm2 = float(v @ v)
        if vnorm2 > 0.0:
            w = (2.0 / vnorm2) * (v @ R[j:, j:])
            R[j:, j:] -= np.outer(v, w)
            if Q is not None:
                wq = (2.0 / vnorm2) * (Q[:, j:] @ v)
                Q[:, j:] -= np.outer(wq, v)
            if flops is not None:
                # Per reflector: v@v, the two matrix-vector products AND the
                # two rank-1 updates (2 ops per touched element each), plus
                # the two scalings by 2/vnorm2.
                flops.add_muladds(
                    2.0 * (m - j)
                    + 4.0 * (m - j) * (n - j)
                    + 4.0 * m * (m - j)
                    + (n - j)
                    + m
                )
                flops.add_divides(1.0)
        R[j, j] = alpha
        R[j + 1 :, j] = 0.0
    return (None if Q is None else Q[:, :k]), R[:k, :], perm


def _interaction(R: np.ndarray, k: int) -> Optional[np.ndarray]:
    """``R11^{-1} R12`` (None when there is no R12 or R11 is singular)."""
    if R.shape[1] <= k:
        return None
    R11 = R[:k, :k]
    if np.any(np.diagonal(R11) == 0.0):
        return None
    from scipy.linalg import solve_triangular

    return solve_triangular(R11, R[:k, k:], lower=False)


def _check_tau(tau: float) -> None:
    if tau < 1.0:
        raise ValueError(f"strong-RRQR threshold tau must be >= 1, got {tau}")


def _strong_rrqr(
    A: np.ndarray,
    k: int,
    tau: float,
    flops: Optional[FlopCounter],
    want_q: bool,
) -> RRQRResult:
    """The reference kernel: QR with column pivoting, then strengthening swaps."""
    Q, R, perm = _householder_qr(A, k, flops, pivot=True, want_q=want_q)
    swaps = 0
    max_swaps = MAX_SWAPS_PER_COLUMN * max(k, 1)
    inter = _interaction(R, k)
    while inter is not None and swaps < max_swaps:
        i, j = np.unravel_index(int(np.argmax(np.abs(inter))), inter.shape)
        if abs(inter[i, j]) <= tau:
            break
        # Swap the weak selected column with the strong rejected one and
        # refactor the permuted matrix without re-pivoting (blocks here are
        # small — b x 2b at most in the tournament — so a fresh QR is cheaper
        # than the textbook update formulas and stays bit-deterministic).
        perm[[i, k + j]] = perm[[k + j, i]]
        Q, R, _ = _householder_qr(A[:, perm], k, flops, pivot=False, want_q=want_q)
        swaps += 1
        inter = _interaction(R, k)
    return RRQRResult(Q=Q, R=R, perm=perm, k=k, swaps=swaps, interaction=inter)


def rrqr(
    A: np.ndarray,
    k: Optional[int] = None,
    tau: float = DEFAULT_TAU,
    flops: Optional[FlopCounter] = None,
) -> RRQRResult:
    """Strong rank-revealing QR of ``A`` with column threshold ``tau``.

    First a QR with column pivoting, then Gu-Eisenstat strengthening: while
    some entry of ``R11^{-1} R12`` exceeds ``tau`` in magnitude, the offending
    column pair is swapped and the factorization recomputed (each swap grows
    ``|det(R11)|`` by at least that entry's magnitude ``> tau >= 1``, so the
    loop terminates).  With ``tau >= 1`` QR-with-column-pivoting almost always
    satisfies the bound outright and the loop body never runs.

    Parameters
    ----------
    A:
        ``m x n`` real matrix.
    k:
        Number of columns to reveal (default ``min(m, n)``).
    tau:
        Column threshold (``>= 1``).
    flops:
        Optional flop counter (muladds for reflections/norms, comparisons for
        the pivot searches).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("rrqr expects a 2-D matrix")
    _check_tau(tau)
    m, n = A.shape
    k = min(m, n) if k is None else min(k, m, n)
    return _strong_rrqr(A, k, tau, flops, want_q=True)


def _lapack_pivots(
    A: np.ndarray, k: int, tau: float, flops: Optional[FlopCounter]
) -> Optional[np.ndarray]:
    """The column permutation of ``dgeqp3(A)`` if its first ``k`` pivots verify.

    Verified means: the factorization succeeded, each of the ``k`` pivots beat
    its rivals by :data:`PIVOT_GAP`, and ``max |R11^{-1} R12| <= tau`` — the
    test that ends the reference strengthening loop, applied to LAPACK's own
    ``R``.  Then (and only then) the reference loop would have taken the same
    ``k`` pivoted steps without a zero column or a swap, which is what the
    ledger is charged.  ``None`` sends the caller to the reference kernel.
    """
    qr, jpvt, _, _, info = lapack.dgeqp3(A)
    if info != 0:
        return None
    R = np.triu(qr)
    # tails[j, c] = |R[j:, c]|^2, the squared trailing norm pivot j competed
    # on (zero left of the diagonal): lead it by a clear margin or give up.
    tails = np.cumsum((R * R)[::-1], axis=0)[::-1][:k]
    lead = tails.diagonal().copy()
    np.fill_diagonal(tails, 0.0)
    if not np.all(lead - tails.max(axis=1) > PIVOT_GAP * lead[0]):  # NaN: False
        return None
    if A.shape[1] > k:
        # R11^{-1} R12 as in _interaction, minus the wrapper (which at these
        # sizes costs more than the solve).
        inter, info = lapack.dtrtrs(R[:k, :k], R[:k, k:])
        if info != 0 or not np.max(np.abs(inter)) <= tau:
            return None
    if flops is not None:
        flops.merge(FlopFormulas.rrqr_select_exact(A.shape[0], A.shape[1], k))
    return jpvt.astype(np.int64) - 1


def select_rows_rrqr(
    block: np.ndarray,
    nselect: int,
    tau: float = DEFAULT_TAU,
    flops: Optional[FlopCounter] = None,
) -> np.ndarray:
    """Indices of up to ``nselect`` pivot rows of ``block``, by strong RRQR.

    The selection kernel of CALU_PRRP's tournament: rows of ``block`` are
    columns of ``block.T``, so a strong RRQR of the transpose picks the rows
    whose span best represents the block — with every discarded row within
    ``tau`` of the selected ones in the ``L21`` sense.  Returns local row
    indices in selection order (the order they must occupy at the top of the
    panel).

    ``dgeqp3`` answers when its pivots verify, :func:`_strong_rrqr`
    otherwise (see the module docstring); the returned indices and the
    ``flops`` charges do not depend on which one did.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("select_rows_rrqr expects a 2-D block")
    _check_tau(tau)
    k = min(nselect, block.shape[0])
    if k == 0:
        return np.empty(0, dtype=np.int64)
    steps = min(k, block.shape[1])
    perm = None
    if steps > 0:
        perm = _lapack_pivots(block.T, steps, tau, flops)
    if perm is None:
        perm = _strong_rrqr(block.T, steps, tau, flops, want_q=False).perm
    return np.asarray(perm[:k], dtype=np.int64)
