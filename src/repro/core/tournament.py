"""ca-pivoting: tournament selection of panel pivot rows.

The heart of CALU (Section 2 of the paper) is a *tournament* that selects
``b`` pivot rows for an ``m x b`` panel using a reduction tree:

1. the panel's rows are split into ``P`` row blocks (one per process in the
   parallel algorithm);
2. each block performs an LU factorization with partial pivoting and keeps its
   ``b`` pivot rows as its *candidates*;
3. pairs of candidate sets are repeatedly merged: the two ``b x b`` candidate
   blocks are stacked into a ``2b x b`` matrix, factored with partial
   pivoting, and the ``b`` pivot rows of that factorization are the winners of
   the pair;
4. after ``log2(P)`` rounds a single set of ``b`` global pivot rows remains;
   the ``U`` factor computed at the root of the tree is the ``U11`` factor of
   the panel.

This module is the only place that knows the tournament, and the same code
drives the sequential and the SPMD algorithm: :func:`leaf_candidates` is the
leaf step of :func:`tournament_pivoting` and of
:func:`repro.parallel.ptslu.ptslu`, :func:`merge_pairs` is the body of a
sequential reduction round and of the SPMD all-reduce operator, and
:func:`order_winners` is the finish of every tree that carries no ``U``.  The
selection kernel (``selector``: partial pivoting, or the strong RRQR of
CALU_PRRP) is the one parameter.  What differs between the two drivers is the
*schedule* — here a walk over ``flat`` / ``binary`` / ``butterfly`` pairings
(:func:`tournament_pivoting`), there the all-reduce of :mod:`repro.distsim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import batch_by_shape, getf2_batched, slab_flop_counters
from ..kernels.flops import FlopCounter
from ..kernels.getf2 import getf2
from ..kernels.rgetf2 import rgetf2
from ..kernels.rrqr import select_rows_rrqr

#: The local factorization kernels selectable for the leaf step (the paper's
#: "Cl" = classic DGETF2 and "Rec" = recursive RGETF2 configurations).
LOCAL_KERNELS: dict = {"getf2": getf2, "rgetf2": rgetf2}


@dataclass
class CandidateSet:
    """A set of candidate pivot rows produced at a node of the tournament tree.

    Attributes
    ----------
    rows:
        Global row indices of the candidates, in the order chosen by the
        factorization at this node (pivot order).
    block:
        The candidate rows themselves, a ``k x b`` matrix with ``k <= b``
        (fewer than ``b`` only when the whole panel has fewer than ``b``
        rows).
    """

    rows: np.ndarray
    block: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.block = np.asarray(self.block, dtype=np.float64)
        if self.rows.shape[0] != self.block.shape[0]:
            raise ValueError("candidate rows and block must have matching length")


@dataclass
class TournamentResult:
    """Outcome of a full tournament on one panel.

    Attributes
    ----------
    winners:
        Global indices of the ``b`` selected pivot rows, in the pivot order of
        the root factorization (the order in which they must be placed at the
        top of the panel).
    U:
        The ``b x b`` upper-triangular factor computed at the root of the
        tree; this is the ``U11`` factor of the panel's LU factorization.
    rounds:
        Number of reduction rounds performed (tree depth, excluding the local
        leaf factorizations).
    """

    winners: np.ndarray
    U: np.ndarray
    rounds: int


def local_candidates(
    rows: np.ndarray,
    block: np.ndarray,
    b: int,
    flops: Optional[FlopCounter] = None,
    local_kernel: str = "getf2",
) -> CandidateSet:
    """Leaf step of the tournament: select up to ``b`` candidate rows of one block.

    Parameters
    ----------
    rows:
        Global indices of the block's rows.
    block:
        The block's entries (``len(rows) x b``).
    b:
        Panel width.
    flops:
        Optional flop counter charged with the local factorization.
    local_kernel:
        ``"getf2"`` or ``"rgetf2"`` — which sequential LU performs the local
        factorization (the paper's Cl/Rec configurations).  It runs on
        ``dgetrf``: only the pivot *order* of the factorization flows into
        the candidate set — the candidate rows themselves are gathered from
        the original block — so its rounding changes no bits of the result.
    """
    rows = np.asarray(rows, dtype=np.int64)
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != rows.shape[0]:
        raise ValueError("block shape must match the number of row indices")
    k = min(b, block.shape[0])
    if block.shape[0] == 0:
        return CandidateSet(rows=rows[:0], block=block[:0])
    kernel = LOCAL_KERNELS[local_kernel]
    if local_kernel == "rgetf2" and block.shape[0] < block.shape[1]:
        # The recursive kernel requires a tall block; fall back for stubs.
        kernel = getf2
    res = kernel(block, flops=flops)
    chosen = res.perm[:k]
    return CandidateSet(rows=rows[chosen], block=block[chosen, :])


def merge_candidates(
    a: CandidateSet,
    b_set: CandidateSet,
    b: int,
    flops: Optional[FlopCounter] = None,
) -> Tuple[CandidateSet, np.ndarray]:
    """Internal tournament node: merge two candidate sets.

    The two candidate blocks are stacked (``a`` on top of ``b_set``) and
    factored with partial pivoting; the first ``b`` pivot rows win.

    Returns
    -------
    (winner, U):
        ``winner`` is the merged :class:`CandidateSet`; ``U`` is the upper
        triangular factor of the stacked factorization (needed at the root of
        the tree, where it becomes the panel's ``U11``).

    Notes
    -----
    Merges always run :func:`~repro.kernels.getf2.getf2`'s reference loop:
    the ``U`` factor computed here flows straight into the panel factors, so
    its bits are contractual.  Batches of same-shape merges go through
    :func:`~repro.kernels.batched.getf2_batched` instead (bit-identical, one
    call per reduction round) — see :func:`merge_pairs`.
    """
    stacked = np.vstack([a.block, b_set.block])
    all_rows = np.concatenate([a.rows, b_set.rows])
    if stacked.shape[0] == 0:
        return CandidateSet(rows=all_rows, block=stacked), np.zeros((0, 0))
    res = getf2(stacked, flops=flops, reference=True)
    k = min(b, stacked.shape[0])
    chosen = res.perm[:k]
    winner = CandidateSet(rows=all_rows[chosen], block=stacked[chosen, :])
    kk = min(stacked.shape[0], stacked.shape[1])
    U = np.triu(res.lu[:kk, :])
    return winner, U


def local_candidates_rrqr(
    rows: np.ndarray,
    block: np.ndarray,
    b: int,
    flops: Optional[FlopCounter] = None,
) -> CandidateSet:
    """Leaf step of the CALU_PRRP tournament: strong-RRQR row selection.

    Same contract as :func:`local_candidates`, but the candidates are the rows
    a strong rank-revealing QR of ``block.T`` picks — every rejected row is a
    ``tau``-bounded combination of the selected ones, which is what bounds the
    PRRP growth factor (Khabou et al., arXiv:1208.2451).
    """
    rows = np.asarray(rows, dtype=np.int64)
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != rows.shape[0]:
        raise ValueError("block shape must match the number of row indices")
    if block.shape[0] == 0:
        return CandidateSet(rows=rows[:0], block=block[:0])
    chosen = select_rows_rrqr(block, min(b, block.shape[0]), flops=flops)
    return CandidateSet(rows=rows[chosen], block=block[chosen, :])


def merge_candidates_rrqr(
    a: CandidateSet,
    b_set: CandidateSet,
    b: int,
    flops: Optional[FlopCounter] = None,
) -> Tuple[CandidateSet, None]:
    """Internal CALU_PRRP tournament node: strong-RRQR merge of two candidate sets.

    The stacked ``2b x b`` candidate block is reduced to ``b`` winners by
    strong-RRQR row selection.  Unlike :func:`merge_candidates`, no ``U``
    factor falls out of the selection — CALU_PRRP computes the panel's ``U11``
    from a pivoted LU of the winner block (:func:`order_winners`), so the
    second tuple element is ``None``.  That is also why this merge, unlike
    :func:`merge_candidates`, may take ``dgeqp3``'s verified pivots: only the
    winners' *order* leaves it, the winner rows are gathered from the stacked
    originals.
    """
    stacked = np.vstack([a.block, b_set.block])
    all_rows = np.concatenate([a.rows, b_set.rows])
    if stacked.shape[0] == 0:
        return CandidateSet(rows=all_rows, block=stacked), None
    chosen = select_rows_rrqr(stacked, min(b, stacked.shape[0]), flops=flops)
    return CandidateSet(rows=all_rows[chosen], block=stacked[chosen, :]), None


def order_winners(
    winner: CandidateSet, flops: Optional[FlopCounter] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Finish of a tree that carries no ``U``: pivoted LU of the winner block.

    Returns ``(winner rows in elimination order, packed LU of their block)``.
    A strong-RRQR selection order is not an elimination order (and a single
    block was never merged), so the winners are re-ordered by partial pivoting
    *inside* the already-chosen rows: no communication, identical on every
    rank, and on the reference loop because these bits become the panel's
    ``U11``.
    """
    res = getf2(winner.block, flops=flops, reference=True)
    return winner.rows[res.perm], res.lu


def leaf_candidates(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray]],
    b: int,
    selector: str = "getf2",
    local_kernel: str = "getf2",
) -> List[Tuple[CandidateSet, FlopCounter]]:
    """Leaf step over every row block: one ``(candidates, flops)`` per block.

    ``getf2`` leaves are factored together, one
    :func:`~repro.kernels.batched.getf2_batched` call per group of same-shape
    blocks; everything else (stray shapes at the panel fringe, empty blocks,
    ``rgetf2`` and ``rrqr`` leaves) goes block by block through
    :func:`local_candidates` / :func:`local_candidates_rrqr`.  Either
    way a block's candidates and counter are exactly what its own leaf call
    produces, so the sequential caller sums the counters and the SPMD caller
    charges each to its rank.
    """
    if selector not in ("getf2", "rrqr"):
        raise ValueError(f"unknown tournament selector {selector!r}")
    rows_arr = [np.asarray(r, dtype=np.int64) for r, _ in blocks]
    blk_arr = [np.asarray(blk, dtype=np.float64) for _, blk in blocks]
    out: List[Optional[Tuple[CandidateSet, FlopCounter]]] = [None] * len(blocks)
    groups = (
        batch_by_shape([blk.shape for blk in blk_arr])
        if selector == "getf2" and local_kernel == "getf2"
        else []
    )
    for idxs in groups:
        # The stack is a private temporary and the candidate rows are
        # gathered from the original blocks, so it is factored in place.
        res = getf2_batched(np.stack([blk_arr[i] for i in idxs]), overwrite=True)
        m_blk, n_blk = blk_arr[idxs[0]].shape
        counters = slab_flop_counters(m_blk, n_blk, res.zero_columns)
        for s, i in enumerate(idxs):
            chosen = res.perm[s][: min(b, m_blk)]
            out[i] = (
                CandidateSet(rows=rows_arr[i][chosen], block=blk_arr[i][chosen, :]),
                counters[s],
            )
    for i, done in enumerate(out):
        if done is None:
            counter = FlopCounter()
            if selector == "rrqr":
                cand = local_candidates_rrqr(rows_arr[i], blk_arr[i], b, flops=counter)
            else:
                cand = local_candidates(
                    rows_arr[i], blk_arr[i], b, flops=counter, local_kernel=local_kernel
                )
            out[i] = (cand, counter)
    return out


def merge_pairs(
    pairs: Sequence[Tuple[CandidateSet, CandidateSet]],
    b: int,
    selector: str = "getf2",
) -> List[Tuple[CandidateSet, FlopCounter, Optional[np.ndarray]]]:
    """Merge independent candidate pairs: the one tournament node evaluator.

    Per pair, returns the winner, the flops of its merge and the factor the
    merge leaves behind — for ``getf2`` the leading rows of the stacked LU
    (``np.triu`` of them is the pair's ``U``), for ``rrqr`` ``None``.  Every
    merge a sequential round or the SPMD all-reduce evaluates passes through
    here.  ``getf2`` pairs whose stacked blocks share a shape are factored in
    one :func:`~repro.kernels.batched.getf2_batched` call — arithmetic, pivot
    choices and flop counts bit-identical to a :func:`merge_candidates` loop
    (always reference-loop bits: their ``U`` becomes the panel's); stray
    shapes use that loop.  ``rrqr`` merges pass only a row order on, so they
    run :func:`merge_candidates_rrqr` one by one.
    """
    if selector not in ("getf2", "rrqr"):
        raise ValueError(f"unknown tournament selector {selector!r}")
    out: List[Optional[Tuple[CandidateSet, FlopCounter, Optional[np.ndarray]]]] = (
        [None] * len(pairs)
    )
    if selector == "getf2":
        shapes = [
            (a.block.shape[0] + c.block.shape[0], a.block.shape[1]) for a, c in pairs
        ]
        for idxs in batch_by_shape(shapes):
            mrows, ncols = shapes[idxs[0]]
            stack = np.empty((len(idxs), mrows, ncols), dtype=np.float64)
            for s, i in enumerate(idxs):
                a, c = pairs[i]
                stack[s, : a.block.shape[0]] = a.block
                stack[s, a.block.shape[0] :] = c.block
            res = getf2_batched(stack, overwrite=False)
            slab_counts = slab_flop_counters(mrows, ncols, res.zero_columns)
            k = min(b, mrows)
            for s, i in enumerate(idxs):
                a, c = pairs[i]
                all_rows = np.concatenate([a.rows, c.rows])
                chosen = res.perm[s][:k]
                out[i] = (
                    CandidateSet(rows=all_rows[chosen], block=stack[s][chosen, :]),
                    slab_counts[s],
                    res.lu[s][: min(mrows, ncols), :],
                )
    for i, (a, c) in enumerate(pairs):
        if out[i] is None:
            counter = FlopCounter()
            if selector == "rrqr":
                winner, factor = merge_candidates_rrqr(a, c, b, flops=counter)
            else:
                winner, factor = merge_candidates(a, c, b, flops=counter)
            out[i] = (winner, counter, factor)
    return out


def merge_round(
    pairs: Sequence[Tuple[CandidateSet, CandidateSet]],
    b: int,
    flops: Optional[FlopCounter] = None,
    selector: str = "getf2",
) -> Tuple[List[CandidateSet], Optional[np.ndarray]]:
    """One reduction round: ``(winner per pair, U of the last pair or None)``.

    Repeated pairs — every butterfly level merges each pair once per
    participant, the redundant computation the paper trades for fewer
    messages, and padded replicas share objects too — are merged once through
    :func:`merge_pairs` and their result replicated, while the flop ledger is
    charged once per *logical* merge, so the accounted arithmetic is that of
    the redundant schedule.
    """
    first: dict = {}
    uniq: List[Tuple[CandidateSet, CandidateSet]] = []
    slot = []
    for a, c in pairs:
        key = (id(a), id(c))
        if key not in first:
            first[key] = len(uniq)
            uniq.append((a, c))
        slot.append(first[key])
    merged = merge_pairs(uniq, b, selector)
    if flops is not None:
        for j in slot:
            flops.merge(merged[j][1])
    factor = merged[slot[-1]][2] if slot else None
    return [merged[j][0] for j in slot], None if factor is None else np.triu(factor)


def tournament_pivoting(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray]],
    b: int,
    flops: Optional[FlopCounter] = None,
    schedule: str = "binary",
    local_kernel: str = "getf2",
    selector: str = "getf2",
) -> TournamentResult:
    """Run the full ca-pivoting tournament over a partitioned panel.

    Parameters
    ----------
    blocks:
        Sequence of ``(global_row_indices, block)`` pairs — one per virtual
        process; together they must cover the panel's rows exactly once.
    b:
        Panel width (number of pivots to select).
    flops:
        Optional flop counter.
    schedule:
        Reduction schedule:

        * ``"binary"`` — binary reduction tree (depth ``ceil(log2 P)``), the
          schedule analysed in the paper;
        * ``"flat"`` — sequential left fold (depth ``P - 1``); same winners in
          exact arithmetic for the same pairings order, more rounds;
        * ``"butterfly"`` — all-reduction schedule; every leaf ends with the
          winners.  Sequentially this is charged the redundant work of the
          parallel butterfly and is provided for the ablation study.
    local_kernel:
        Kernel for the ``getf2`` selector's leaf factorizations (``"getf2"``
        or ``"rgetf2"``); ``selector="rrqr"`` ignores it.  Each reduction
        round — and the ``getf2`` leaf step — is one
        :func:`~repro.kernels.batched.getf2_batched` call; the winners, ``U``
        factor and flop charges are bit-identical to executing every logical
        merge one at a time through :func:`merge_candidates`.
    selector:
        Selection kernel at the leaves and merge nodes:

        * ``"getf2"`` — partial-pivoting rows (the paper's ca-pivoting); the
          ``U`` of the root merge is the panel's ``U11``, read off at no
          charge (the distributed code instead runs the paper's no-pivoting
          second phase, see :mod:`repro.parallel.ptslu`);
        * ``"rrqr"`` — strong-RRQR rows (CALU_PRRP, Khabou et al.,
          arXiv:1208.2451).  The selection tree carries no ``U`` factor; the
          panel's ``U11`` is a pivoted LU of the winner block
          (:func:`order_winners`), as in the distributed code.

    Returns
    -------
    TournamentResult
    """
    if b < 1:
        raise ValueError("panel width b must be >= 1")
    if len(blocks) == 0:
        raise ValueError("tournament needs at least one row block")
    if schedule not in ("flat", "binary", "butterfly"):
        raise ValueError(f"unknown tournament schedule {schedule!r}")
    leaves = leaf_candidates(blocks, b, selector, local_kernel)
    if flops is not None:
        for _, counter in leaves:
            flops.merge(counter)
    # Drop empty blocks (they can appear when m is not a multiple of P*b).
    level = [cand for cand, _ in leaves if cand.rows.shape[0] > 0]
    if not level:
        raise ValueError("all row blocks are empty")

    if schedule == "butterfly" and len(level) > 1:
        # Pad to a power of two by replicating the last candidate set; the
        # replicas never win over their originals because ties keep the first.
        level += [level[-1]] * ((1 << (len(level) - 1).bit_length()) - len(level))
    U = None
    rounds = 0
    k = 1  # butterfly partner distance; flat and binary shrink the level instead
    while k < len(level):
        rounds += 1
        if schedule == "flat":  # left fold: each merge depends on the last
            pairs, carry = [(level[0], level[1])], level[2:]
        elif schedule == "binary":  # neighbours; an odd last set gets a bye
            pairs = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
            carry = level[len(pairs) * 2 :]
        else:  # every participant redundantly merges with its partner
            pairs = [
                (level[min(i, i ^ k)], level[max(i, i ^ k)]) for i in range(len(level))
            ]
            carry = []
            k *= 2
        level, U = merge_round(pairs, b, flops, selector)
        level += carry
    winners = level[0].rows
    if U is None:
        winners, packed = order_winners(level[0], flops)
        U = np.triu(packed)
    return TournamentResult(winners=winners, U=U[: winners.shape[0], :], rounds=rounds)


def partition_rows(
    m: int,
    nblocks: int,
    scheme: str = "contiguous",
    block: int = 1,
    row_indices: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Partition ``m`` panel rows into ``nblocks`` groups.

    Parameters
    ----------
    m:
        Number of rows (ignored if ``row_indices`` is given).
    nblocks:
        Number of groups (virtual processes).
    scheme:
        ``"contiguous"`` — equal contiguous chunks (the layout in the paper's
        Section 2 description); ``"block_cyclic"`` — round-robin blocks of
        ``block`` rows (the layout induced by the 2-D block-cyclic
        distribution, used by CALU and by Figure 1).
    block:
        Block size for the block-cyclic scheme.
    row_indices:
        Optional explicit global indices of the panel's rows (they may be a
        subset of a larger matrix); defaults to ``0..m-1``.

    Returns
    -------
    list of numpy.ndarray
        One array of global row indices per group (possibly empty).
    """
    rows = (
        np.arange(m, dtype=np.int64)
        if row_indices is None
        else np.asarray(row_indices, dtype=np.int64)
    )
    m = rows.shape[0]
    if nblocks < 1:
        raise ValueError("nblocks must be >= 1")
    if scheme == "contiguous":
        chunk = -(-m // nblocks)
        return [rows[i * chunk : (i + 1) * chunk] for i in range(nblocks)]
    if scheme == "block_cyclic":
        positions = np.arange(m, dtype=np.int64)
        return [rows[(positions // block) % nblocks == p] for p in range(nblocks)]
    raise ValueError(f"unknown partition scheme {scheme!r}")
