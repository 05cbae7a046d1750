"""CALU: communication-avoiding LU factorization of a dense matrix.

The block right-looking driver of Section 2 / Section 4 of the paper, in its
sequential-semantics form: the matrix is traversed by block-columns of width
``b``; each panel is factored with TSLU (ca-pivoting over ``Pr`` row blocks),
the pivot rows are swapped across the whole matrix, the ``U`` block-row is
obtained from a triangular solve, and the trailing matrix receives the usual
Schur-complement update.

Because ca-pivoting is the only thing that distinguishes CALU from the classic
blocked factorization *numerically*, this sequential version produces exactly
the factors, permutations and growth behaviour the distributed code would —
it is therefore the engine behind the stability experiments (Tables 1-2,
Figure 2), while :mod:`repro.parallel.pcalu` adds the communication structure
on top of the same building blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..kernels.flops import FlopCounter
from ..kernels.gemm import gemm_update
from ..kernels.getf2 import PackedFactors
from ..kernels.laswp import permute_rows_inplace
from ..kernels.pivoting import invert_perm
from ..kernels.trsm import trsm_lower_unit, trsm_upper
from .tslu import tslu


@dataclass
class CALUResult(PackedFactors):
    """Factors produced by CALU.

    Attributes
    ----------
    packed:
        The factored ``m x n`` working matrix, the one array the result
        holds; ``L`` and ``U`` are built from it on demand (see
        :class:`~repro.kernels.getf2.PackedFactors`).
    perm:
        Row permutation with ``A[perm, :] = L @ U`` (up to rounding).
    growth_history:
        Maximum absolute entry of the working matrix after each panel step
        (only populated when requested) — feeds the growth factor g_T.
    threshold_history:
        Concatenated per-column pivot thresholds (pivot magnitude divided by
        the column maximum at elimination time) over all panels — feeds the
        τ_min / τ_ave columns of Table 1 and Figure 2 (right).
    flops:
        Arithmetic performed (muladds, divides, comparisons).
    panel_width:
        The block size ``b`` used.
    nblocks:
        The number of row blocks ``Pr`` used by the panel tournaments.
    pivoting:
        The pivoting strategy the panels used (``"pp"``, ``"ca"`` or
        ``"ca_prrp"``; see :mod:`repro.core.strategies`).
    """

    packed: np.ndarray
    perm: np.ndarray
    growth_history: List[float] = field(default_factory=list)
    threshold_history: np.ndarray = field(default_factory=lambda: np.empty(0))
    flops: FlopCounter = field(default_factory=FlopCounter)
    panel_width: int = 0
    nblocks: int = 1
    pivoting: str = "ca"


def calu(
    A: np.ndarray,
    block_size: int,
    nblocks: int,
    schedule: str = "binary",
    local_kernel: str = "getf2",
    partition: str = "block_cyclic",
    track_growth: bool = False,
    compute_thresholds: bool = False,
    pivoting: Optional[str] = None,
) -> CALUResult:
    """Factor ``A`` with communication-avoiding LU (ca-pivoting panels).

    Parameters
    ----------
    A:
        ``m x n`` dense matrix (``m >= n``; square in all the paper's
        experiments).
    block_size:
        Panel width ``b`` of the 2-D block-cyclic distribution.
    nblocks:
        Number of row blocks ``Pr`` over which each panel's tournament is
        played.  From the point of view of numerical behaviour only ``Pr``
        matters (paper, Section 6.1), so this is the "P" of Tables 1-2.
    schedule, local_kernel, partition:
        Passed to :func:`repro.core.tslu.tslu` (tournament schedule, leaf
        kernel, row-partitioning scheme).
    track_growth:
        Record the growth history needed for the growth factor g_T.
    compute_thresholds:
        Record per-column pivot thresholds (needed for τ_min / τ_ave).
        Recording either runs the ``"pp"`` panels and the CALU_PRRP
        post-pass on :func:`~repro.kernels.getf2.getf2`'s reference loop, so
        the recorded histories replay its bits; tournaments are
        bit-identical either way.
    pivoting:
        Pivoting strategy for the panels (None: the ``"ca"`` default,
        see :mod:`repro.core.strategies`): ``"pp"``
        (partial-pivoting panels, i.e. blocked GEPP), ``"ca"`` (the paper's
        tournament) or ``"ca_prrp"`` (strong-RRQR tournament, CALU_PRRP).

    Returns
    -------
    CALUResult

    Notes
    -----
    When ``block_size >= n`` or ``nblocks == 1`` the pivot choice reduces to
    ordinary partial pivoting on each panel, which is the paper's claim that
    ca-pivoting "is equivalent to partial pivoting when b = 1 or P = 1" (the
    b = 1 case makes every tournament a max-magnitude selection).
    """
    A = np.array(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("calu expects a 2-D matrix")
    m, n = A.shape
    if m < n:
        raise ValueError("calu requires m >= n (factor A or its transpose accordingly)")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if nblocks < 1:
        raise ValueError("nblocks must be >= 1")

    from .strategies import get_strategy

    strategy = get_strategy(pivoting).name
    b = min(block_size, n)
    flops = FlopCounter()
    record = track_growth or compute_thresholds
    # Global permutation accumulated panel by panel: perm[i] = original row of
    # the row currently stored at position i of the working matrix.
    perm = np.arange(m, dtype=np.int64)
    growth: List[float] = []
    thresholds: List[np.ndarray] = []
    # Reusable GEMM workspace: the trailing update's product is materialised
    # into this flat buffer instead of a fresh allocation per panel.
    gemm_work = np.empty((m - b) * (n - b)) if (n > b and m > b) else None

    for j in range(0, n, b):
        jb = min(b, n - j)
        panel = A[j:, j : j + jb]

        pres = tslu(
            panel,
            nblocks=nblocks,
            flops=flops,
            schedule=schedule,
            local_kernel=local_kernel,
            partition=partition,
            block_size=jb,
            compute_thresholds=compute_thresholds,
            pivoting=strategy,
            reference=record,
        )
        if compute_thresholds:
            thresholds.append(pres.threshold_history)

        # Apply the panel permutation to the whole working matrix (rows j..m)
        # and to the global permutation bookkeeping, swapping only the rows
        # the permutation actually moves (no (m-j) x n gather copy).
        local_perm = pres.perm  # permutation of the active rows (0-based in panel)
        permute_rows_inplace(A[j:, :], local_perm)
        permute_rows_inplace(perm[j:], local_perm)

        k = min(panel.shape[0], jb)
        if strategy == "ca_prrp":
            # LU_PRRP block panel (Khabou et al., arXiv:1208.2451): the
            # winner block A11 stays as it is, the eliminated rows store
            # L21 = A21 A11^{-1} (every entry tau-bounded by the strong-RRQR
            # selection), the U block-row keeps the winner rows' original
            # values, and the trailing update is the block Schur complement
            # S = A22 - L21 A12.  No triangularization happens here — that
            # is deferred to a per-panel GEPP post-pass (see below), so the
            # recorded growth history is exactly the block-form quantity the
            # PRRP growth bound (1+2b)^(n/b) speaks about.
            if panel.shape[0] > k:
                # L21 = (A21 U11^{-1}) L11^{-1} from the tournament's
                # triangular factors of the winner block.
                L21 = trsm_upper(
                    np.ascontiguousarray(pres.L[:k, :k].T),
                    np.ascontiguousarray(pres.L[k:, :k].T),
                    flops=flops,
                ).T
                panel[k:, :k] = L21
                if j + jb < n and j + jb < m:
                    # Trailing block Schur update: A22 -= L21 @ A12.
                    gemm_update(
                        A[j + jb :, j + jb :],
                        panel[jb:, :],
                        A[j : j + jb, j + jb :],
                        flops=flops,
                        work=gemm_work,
                    )
            if k < jb:  # degenerate wide fringe: zero the unfactored corner
                panel[k:, k:] = 0.0
        else:
            # Store the panel factors in packed form: U on and above the
            # diagonal, the strictly-lower part of L below it (unit diagonal
            # implicit) — written column by column straight into A, no packed
            # temporary.
            panel[:k, :] = pres.U[:k, :]
            for c in range(k):
                panel[c + 1 :, c] = pres.L[c + 1 :, c]
            if k < jb:  # degenerate wide fringe: zero the unfactored corner
                panel[k:, k:] = 0.0

            if j + jb < n:
                # Block-row of U: U12 = L11^{-1} A12.  The solver reads only
                # the strict lower triangle (unit diagonal implied), so L can
                # be passed as is — no tril + eye temporaries.
                A[j : j + jb, j + jb :] = trsm_lower_unit(
                    pres.L[:jb, :jb], A[j : j + jb, j + jb :], flops=flops
                )
                # Trailing update: A22 -= L21 @ U12.
                if j + jb < m:
                    gemm_update(
                        A[j + jb :, j + jb :],
                        pres.L[jb:, :],
                        A[j : j + jb, j + jb :],
                        flops=flops,
                        work=gemm_work,
                    )
        if track_growth:
            growth.append(float(np.max(np.abs(A))))

    if strategy == "ca_prrp":
        _triangularize_diagonal_blocks(A, perm, b, n, flops, record)

    return CALUResult(
        packed=A,
        perm=perm,
        growth_history=growth,
        threshold_history=np.concatenate(thresholds) if thresholds else np.empty(0),
        flops=flops,
        panel_width=b,
        nblocks=nblocks,
        pivoting=strategy,
    )


def _triangularize_diagonal_blocks(
    A: np.ndarray,
    perm: np.ndarray,
    b: int,
    n: int,
    flops: FlopCounter,
    reference: bool,
) -> None:
    """Turn the block-form PRRP factorization into triangular L/U, in place.

    After the block elimination every diagonal block still holds the original
    winner rows ``A11`` (with ``A21 A11^{-1}`` below and the winners' original
    trailing columns to the right).  A GEPP of each ``b x b`` diagonal block —
    a purely local operation; in the distributed algorithm every rank of the
    grid column performs it redundantly, costing no messages — finishes the
    factorization:

        ``A11[p] = L11 U11``  =>  ``L21_final = L21[:, p-cols] L11``,
        ``U12_final = L11^{-1} A12[p]``,

    leaving the standard packed unit-lower/upper-triangular layout that
    :func:`calu` returns for every strategy.  The growth recorded *before*
    this pass is the block-form growth factor of the PRRP analysis; this pass
    only reshapes factors (its b x b GEPP growth is local and does not
    compound across panels).  ``reference`` runs the GEPP on
    :func:`~repro.kernels.getf2.getf2`'s loop (set by recording runs).
    """
    from ..kernels.getf2 import getf2

    m = A.shape[0]
    for j in range(0, n, b):
        jb = min(b, n - j)
        k = min(m - j, jb)
        res = getf2(A[j : j + k, j : j + k], flops=flops, reference=reference)
        p = res.perm
        L11 = np.tril(res.lu[:, :k], -1)
        np.fill_diagonal(L11, 1.0)
        # Reorder the winner rows: their global-permutation entries, their
        # already-final L entries to the left, and their raw A12 to the right.
        permute_rows_inplace(perm[j : j + k], p)
        if j > 0:
            A[j : j + k, :j] = A[j : j + k, :j][p]
        A[j : j + k, j : j + k] = res.lu
        if j + jb < n:
            A[j : j + k, j + jb :] = trsm_lower_unit(
                res.lu[:, :k], A[j : j + k, j + jb :][p], flops=flops
            )
        # Eliminated rows below: L21_final = (L21 P^T) L11 so that
        # L21_final U11 = L21 A11 = A21.
        if j + k < m:
            L21 = A[j + k :, j : j + k]
            np.matmul(L21[:, p], L11, out=L21)
            flops.add_muladds(2.0 * (m - j - k) * k * k)


def reconstruct(result: CALUResult) -> np.ndarray:
    """Rebuild the original matrix from a :class:`CALUResult` (verification aid)."""
    PA = result.L @ result.U
    return PA[invert_perm(result.perm), :]


def factorization_error(A: np.ndarray, result: CALUResult) -> float:
    """Relative backward error ``||A[perm] - L U||_inf / ||A||_inf``."""
    A = np.asarray(A, dtype=np.float64)
    residual = A[result.perm, :] - result.L @ result.U
    denom = np.linalg.norm(A, np.inf)
    if denom == 0.0:
        return float(np.linalg.norm(residual, np.inf))
    return float(np.linalg.norm(residual, np.inf) / denom)
