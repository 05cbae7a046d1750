"""TSLU: LU factorization of a tall-skinny panel with ca-pivoting.

This is the sequential-semantics version of the algorithm of Section 3: the
panel's rows are split into ``P`` blocks, a tournament
(:mod:`repro.core.tournament`) selects ``b`` pivot rows and the panel is then
factored *without further pivoting* after permuting the winners to the top.
The numerical results (pivot choice, factors, growth) are identical to what
the distributed version (:mod:`repro.parallel.ptslu`) computes — only the
communication is absent — which is why the stability study (Tables 1-2,
Figure 2) can run on this version at full speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..kernels.flops import FlopCounter
from ..kernels.trsm import trsm_right_upper
from .strategies import get_strategy
from .tournament import TournamentResult, partition_rows, tournament_pivoting


@dataclass
class TSLUResult:
    """Factors of a panel computed by TSLU.

    Attributes
    ----------
    L:
        ``m x k`` unit-lower-trapezoidal factor (``k = min(m, b)``); its top
        ``k x k`` block is unit lower triangular.
    U:
        ``k x b`` upper-triangular factor.
    perm:
        Row permutation such that ``A[perm, :] = L @ U``; the first ``k``
        entries are the tournament winners in pivot order.
    winners:
        Global indices of the selected pivot rows (== ``perm[:k]``).
    tournament:
        The raw :class:`~repro.core.tournament.TournamentResult`.
    threshold_history:
        For each eliminated column ``i``, the ratio ``|pivot| / max |column
        i|`` over the rows not yet eliminated — the quantity plotted in
        Figure 2 (right).  ca-pivoting does not guarantee this is 1 (as
        partial pivoting does) but the paper observes it stays above 0.33.
    """

    L: np.ndarray
    U: np.ndarray
    perm: np.ndarray
    winners: np.ndarray
    tournament: TournamentResult
    threshold_history: np.ndarray


def tslu(
    A: np.ndarray,
    nblocks: int,
    flops: Optional[FlopCounter] = None,
    schedule: str = "binary",
    local_kernel: str = "getf2",
    partition: str = "contiguous",
    block_size: Optional[int] = None,
    row_indices: Optional[Sequence[int]] = None,
    compute_thresholds: bool = False,
    pivoting: Optional[str] = None,
    reference: bool = False,
) -> TSLUResult:
    """Factor a tall-skinny panel ``A`` (``m x b``) with ca-pivoting.

    Parameters
    ----------
    A:
        The panel (``m x b``, ``m >= b`` for a full factorization; shorter
        panels are handled by selecting ``min(m, b)`` pivots).
    nblocks:
        Number of row blocks ``P`` participating in the tournament.
    flops:
        Optional flop counter.
    schedule:
        Tournament schedule (``"binary"``, ``"flat"``, ``"butterfly"``).
    local_kernel:
        Leaf factorization kernel (``"getf2"`` or ``"rgetf2"``).
    partition:
        ``"contiguous"`` or ``"block_cyclic"`` row partitioning.
    block_size:
        Block size for the block-cyclic partitioning (defaults to the panel
        width).
    row_indices:
        Optional global row labels (used when the panel is a sub-panel of a
        larger matrix); purely cosmetic for the returned permutation.
    compute_thresholds:
        Also compute the per-column pivot-threshold history (costs one extra
        pass over the panel).  Implies ``reference``.
    pivoting:
        Pivoting strategy (None: the ``"ca"`` default —
        see :mod:`repro.core.strategies`).  ``"ca"`` is the paper's
        tournament; ``"ca_prrp"`` swaps strong-RRQR selection into the
        tournament (CALU_PRRP); ``"pp"`` factors the whole panel with partial
        pivoting (``nblocks`` only affects communication modelling, which the
        sequential algorithm does not perform).
    reference:
        Factor a ``"pp"`` panel on :func:`~repro.kernels.getf2.getf2`'s
        reference loop instead of ``dgetrf``, so recording runs replay the
        loop's bits (:func:`repro.core.calu.calu` sets it when it records
        growth).  Tournament panels are bit-identical either way.

    Returns
    -------
    TSLUResult
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("tslu expects a 2-D panel")
    m, b = A.shape
    if m == 0 or b == 0:
        raise ValueError("tslu expects a non-empty panel")
    if nblocks < 1:
        raise ValueError("nblocks must be >= 1")

    strategy = get_strategy(pivoting)
    k = min(m, b)

    getf2_L: Optional[np.ndarray] = None
    getf2_pos: Optional[np.ndarray] = None
    if not strategy.tournament:
        # Partial pivoting on the whole panel: the winners are the pivot rows
        # of the classic factorization, U its upper-triangular factor.
        from ..kernels.getf2 import getf2

        res = getf2(A, flops=flops, reference=reference or compute_thresholds)
        tres = TournamentResult(
            winners=np.asarray(res.perm[:k], dtype=np.int64),
            U=np.triu(res.lu[:k, :]),
            rounds=0,
        )
        # getf2 already computed every multiplier: row r of the panel's L is
        # the packed row at r's position in getf2's permutation.  Keep them
        # (plus the position map) so L is a gather below, not an O(m b^2)
        # re-solve that would double the work and the charged flops.
        getf2_L = np.tril(res.lu[:, :k], -1)
        np.fill_diagonal(getf2_L, 1.0)
        getf2_pos = np.empty(m, dtype=np.int64)
        getf2_pos[res.perm] = np.arange(m, dtype=np.int64)
    else:
        groups = partition_rows(
            m,
            nblocks,
            scheme=partition,
            block=block_size or b,
        )
        blocks = [(g, A[g, :]) for g in groups]
        tres = tournament_pivoting(
            blocks, b, flops=flops, schedule=schedule, local_kernel=local_kernel,
            selector=strategy.selector,
        )
    winners = tres.winners[:k]

    # Build the full row permutation: winners first (in pivot order), then the
    # remaining rows in their original order.
    mask = np.ones(m, dtype=bool)
    mask[winners] = False
    rest = np.nonzero(mask)[0]
    perm = np.concatenate([winners, rest]).astype(np.int64)

    # U is the root factor of the tournament (k x b upper triangular /
    # trapezoidal); L follows from a triangular solve with the permuted panel
    # (tournament strategies) or a gather of the multipliers the panel
    # factorization already produced (partial pivoting).
    U = np.asarray(tres.U, dtype=np.float64)[:k, :]
    if getf2_L is not None:
        L = getf2_L[getf2_pos[perm]]
    else:
        U11 = U[:, :k]
        L = trsm_right_upper(U11, A[perm, :k], flops=flops)

    thresholds = (
        _threshold_history(A[perm, :], k) if compute_thresholds else np.empty(0)
    )

    if row_indices is not None:
        labels = np.asarray(row_indices, dtype=np.int64)
        perm_out = labels[perm]
        winners_out = labels[winners]
    else:
        perm_out = perm
        winners_out = winners

    return TSLUResult(
        L=L,
        U=U,
        perm=perm_out,
        winners=winners_out,
        tournament=tres,
        threshold_history=thresholds,
    )


def _threshold_history(permuted_panel: np.ndarray, k: int) -> np.ndarray:
    """Per-column pivot thresholds of the no-pivoting elimination of the panel.

    At step ``i`` of the (no-pivoting) elimination, the pivot is the diagonal
    entry; the threshold is ``|pivot| / max_j |column_i[j]|`` over the active
    rows ``j >= i``.  Partial pivoting has threshold 1 by construction.
    """
    A = np.array(permuted_panel, dtype=np.float64)
    m, b = A.shape
    out = np.empty(k)
    for i in range(k):
        col = np.abs(A[i:, i])
        colmax = col.max() if col.size else 0.0
        pivot = abs(A[i, i])
        out[i] = 1.0 if colmax == 0.0 else pivot / colmax
        if A[i, i] != 0.0 and i < m - 1:
            factors = A[i + 1 :, i] / A[i, i]
            A[i + 1 :, i:] -= np.outer(factors, A[i, i:])
    return out


def tslu_partial_pivoting_reference(A: np.ndarray) -> np.ndarray:
    """Pivot rows Gaussian elimination with partial pivoting would choose for ``A``.

    Used in tests to compare ca-pivoting with the classic choice (they
    coincide on the Figure 1 example and whenever ``P = 1``).
    """
    from ..kernels.getf2 import getf2

    res = getf2(np.asarray(A, dtype=np.float64))
    k = min(A.shape)
    return res.perm[:k]
