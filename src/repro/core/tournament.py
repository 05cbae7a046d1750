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

This module implements the reduction in a scheduling-agnostic way so the same
code drives the sequential algorithm (:mod:`repro.core.tslu`), the SPMD
algorithm (:mod:`repro.parallel.ptslu`), and the ablation benchmarks that
compare flat, binary-tree and butterfly schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import getf2_batched, slab_flop_counters
from ..kernels.flops import FlopCounter
from ..kernels.getf2 import getf2
from ..kernels.rgetf2 import rgetf2
from ..kernels.rrqr import select_rows_rrqr
from ..kernels.tiers import resolve_tier

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
    kernel_tier: Optional[str] = None,
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
        factorization (the paper's Cl/Rec configurations).
    kernel_tier:
        Kernel tier for the factorization (None: process-wide default).  Only
        the pivot *order* of the factorization flows into the candidate set —
        the candidate rows themselves are gathered from the original block —
        so the fast tier changes no bits of the result.
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
    res = kernel(block, flops=flops, kernel_tier=kernel_tier)
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
    Merges always run reference-tier arithmetic: the ``U`` factor computed
    here flows straight into the panel factors, so its bits must not depend
    on the configured kernel tier.  Batches of same-shape merges go through
    :func:`~repro.kernels.batched.getf2_batched` instead (bit-identical, one
    call per reduction round) — see ``_merge_round``.
    """
    stacked = np.vstack([a.block, b_set.block])
    all_rows = np.concatenate([a.rows, b_set.rows])
    if stacked.shape[0] == 0:
        return CandidateSet(rows=all_rows, block=stacked), np.zeros((0, 0))
    res = getf2(stacked, flops=flops, kernel_tier="reference")
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
    kernel_tier: Optional[str] = None,
) -> CandidateSet:
    """Leaf step of the CALU_PRRP tournament: strong-RRQR row selection.

    Same contract as :func:`local_candidates`, but the candidates are the rows
    a strong rank-revealing QR of ``block.T`` picks — every rejected row is a
    ``tau``-bounded combination of the selected ones, which is what bounds the
    PRRP growth factor (Khabou et al., arXiv:1208.2451).  ``kernel_tier``
    picks the selection kernel; selection and flop charges do not depend on
    it (see :mod:`repro.kernels.rrqr`).
    """
    rows = np.asarray(rows, dtype=np.int64)
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != rows.shape[0]:
        raise ValueError("block shape must match the number of row indices")
    if block.shape[0] == 0:
        return CandidateSet(rows=rows[:0], block=block[:0])
    chosen = select_rows_rrqr(
        block, min(b, block.shape[0]), flops=flops, kernel_tier=kernel_tier
    )
    return CandidateSet(rows=rows[chosen], block=block[chosen, :])


def merge_candidates_rrqr(
    a: CandidateSet,
    b_set: CandidateSet,
    b: int,
    flops: Optional[FlopCounter] = None,
    kernel_tier: Optional[str] = None,
) -> Tuple[CandidateSet, None]:
    """Internal CALU_PRRP tournament node: strong-RRQR merge of two candidate sets.

    The stacked ``2b x b`` candidate block is reduced to ``b`` winners by
    strong-RRQR row selection.  Unlike :func:`merge_candidates`, no ``U``
    factor falls out of the selection — CALU_PRRP computes the panel's ``U11``
    in a second no-pivoting elimination of the winner rows (see
    :func:`tournament_pivoting`), so the second tuple element is ``None``.
    That is also why this merge, unlike :func:`merge_candidates`, may run on
    any ``kernel_tier``: only the winners' *order* leaves it, the winner rows
    are gathered from the stacked originals.
    """
    stacked = np.vstack([a.block, b_set.block])
    all_rows = np.concatenate([a.rows, b_set.rows])
    if stacked.shape[0] == 0:
        return CandidateSet(rows=all_rows, block=stacked), None
    chosen = select_rows_rrqr(
        stacked, min(b, stacked.shape[0]), flops=flops, kernel_tier=kernel_tier
    )
    return CandidateSet(rows=all_rows[chosen], block=stacked[chosen, :]), None


def _reduce_selected(
    candidates: List[CandidateSet],
    b: int,
    flops: Optional[FlopCounter],
    schedule: str,
    merge_fn,
) -> Tuple[CandidateSet, int]:
    """Schedule-shaped reduction with a pluggable merge (selection only, no U).

    Supports the same three schedules as the partial-pivoting tournament.
    Used by the ``rrqr`` selector, whose merges carry no ``U`` factor and need
    none of the bit-compatibility batching of the ``getf2`` path.

    Deliberately a separate implementation from ``_flat_reduce`` /
    ``_binary_reduce`` / ``_butterfly_reduce`` + ``_merge_round``: those are
    bit-locked to the seed arithmetic (and interwoven with the batched-LU
    fast path), so they must not grow a merge-operator parameter.  The
    scheduling conventions are shared by contract, not by code — any change
    to the pairing order, the butterfly ``candidates[-1]`` padding rule, or
    the charge-once-per-logical-merge flop convention there must be mirrored
    here (and vice versa).
    """
    if schedule == "flat":
        acc = candidates[0]
        rounds = 0
        for nxt in candidates[1:]:
            acc, _ = merge_fn(acc, nxt, b, flops=flops)
            rounds += 1
        return acc, rounds
    if schedule == "binary":
        level = list(candidates)
        rounds = 0
        while len(level) > 1:
            rounds += 1
            nxt = [
                merge_fn(level[i], level[i + 1], b, flops=flops)[0]
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2 == 1:
                nxt.append(level[-1])
            level = nxt
        return level[0], rounds
    if schedule == "butterfly":
        p = len(candidates)
        if p == 1:
            return candidates[0], 0
        pow2 = 1
        while pow2 < p:
            pow2 *= 2
        current = list(candidates) + [candidates[-1]] * (pow2 - p)
        rounds = 0
        k = 1
        while k < pow2:
            rounds += 1
            # Each unordered pair is computed once and shared (the redundant
            # butterfly merges are bit-identical), but the flop ledger is
            # charged once per logical merge so the accounted arithmetic
            # matches the redundant parallel schedule — same convention as
            # the batched getf2 path.
            cache: dict = {}
            nxt = []
            for i in range(pow2):
                partner = i ^ k
                lo, hi = (i, partner) if i < partner else (partner, i)
                if (lo, hi) not in cache:
                    scratch = FlopCounter()
                    winner, _ = merge_fn(current[lo], current[hi], b, flops=scratch)
                    cache[(lo, hi)] = (winner, scratch)
                winner, scratch = cache[(lo, hi)]
                if flops is not None:
                    flops.merge(scratch)
                nxt.append(winner)
            current = nxt
            k *= 2
        return current[0], rounds
    raise ValueError(f"unknown tournament schedule {schedule!r}")


def merge_pairs(
    pairs: Sequence[Tuple[CandidateSet, CandidateSet]], b: int
) -> Tuple[List[CandidateSet], List[FlopCounter], List[np.ndarray]]:
    """Merge independent candidate pairs, same-shape ones in one batched LU.

    Per pair, returns the winner, the flops of its merge and the leading rows
    of its stacked factorization (``np.triu`` of them is the pair's ``U``).
    Pairs whose stacked blocks share a shape are factored in a single
    :func:`~repro.kernels.batched.getf2_batched` call — the arithmetic, pivot
    choices and flop counts are bit-identical to a :func:`merge_candidates`
    loop, only the Python-loop overhead of separate ``getf2`` calls is gone.
    Odd-shaped pairs (short blocks at the panel fringe) use that loop.
    """
    n_pairs = len(pairs)
    merged: List[Optional[CandidateSet]] = [None] * n_pairs
    counters: List[Optional[FlopCounter]] = [None] * n_pairs
    factors: List[Optional[np.ndarray]] = [None] * n_pairs
    groups: dict = {}
    for i, (a, c) in enumerate(pairs):
        shape = (a.block.shape[0] + c.block.shape[0], a.block.shape[1])
        groups.setdefault(shape, []).append(i)

    for (mrows, ncols), idxs in groups.items():
        if len(idxs) < 2 or mrows == 0 or ncols == 0:
            for i in idxs:
                counters[i] = FlopCounter()
                merged[i], factors[i] = merge_candidates(
                    pairs[i][0], pairs[i][1], b, flops=counters[i]
                )
            continue
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
            merged[i] = CandidateSet(rows=all_rows[chosen], block=stack[s][chosen, :])
            counters[i] = slab_counts[s]
            factors[i] = res.lu[s][: min(mrows, ncols), :]
    return merged, counters, factors


def _merge_round(
    pairs: List[Tuple[CandidateSet, CandidateSet]],
    b: int,
    flops: Optional[FlopCounter],
    batched: bool,
) -> Tuple[List[CandidateSet], Optional[np.ndarray]]:
    """Merge one reduction round's pairs; returns (winners, U of last pair).

    With ``batched=True`` the round goes through :func:`merge_pairs`, and
    repeated pairs — every butterfly level merges each ``(lo, hi)`` pair once
    per participant, which is the redundant computation the paper trades for
    fewer messages — are factored once and their (bit-identical) result
    replicated, while the flop ledger is still charged once per logical
    merge, so the accounted arithmetic matches the sequential schedule
    exactly.  With ``batched=False`` this is exactly the seed's sequential
    merge loop.

    The rrqr selector's ``_reduce_selected`` mirrors this round's scheduling
    conventions (pairing order, padding, per-logical-merge flop charging)
    without sharing code — keep the two in sync when changing either.
    """
    if not batched:
        out: List[CandidateSet] = []
        U = None
        for a, c in pairs:
            w, U = merge_candidates(a, c, b, flops=flops)
            out.append(w)
        return out, U
    if not pairs:
        return [], None

    # Deduplicate repeated pairs by object identity (butterfly levels build
    # each unordered pair twice, and padded replicas share objects too).
    first: dict = {}
    uniq: List[Tuple[CandidateSet, CandidateSet]] = []
    slot = []
    for a, c in pairs:
        key = (id(a), id(c))
        if key not in first:
            first[key] = len(uniq)
            uniq.append((a, c))
        slot.append(first[key])
    merged, counters, factors = merge_pairs(uniq, b)
    if flops is not None:
        for j in slot:
            flops.merge(counters[j])
    return [merged[j] for j in slot], np.triu(factors[slot[-1]])


def tournament_pivoting(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray]],
    b: int,
    flops: Optional[FlopCounter] = None,
    schedule: str = "binary",
    local_kernel: str = "getf2",
    kernel_tier: Optional[str] = None,
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
          winners.  Sequentially this performs the redundant work of the
          parallel butterfly and is provided for the ablation study.
    local_kernel:
        Kernel for the leaf factorizations (``"getf2"`` or ``"rgetf2"``).
    kernel_tier:
        Kernel tier (None: process-wide default, see
        :mod:`repro.kernels.tiers`).  Any tier other than ``"reference"``
        batches each reduction round — and the ``getf2`` leaf step — into a
        single :func:`~repro.kernels.batched.getf2_batched` call; the
        winners, ``U`` factor and flop charges are bit-identical to the
        sequential reference schedule.  With ``selector="rrqr"`` the tier
        picks the selection kernel of leaves and merges alike (same
        selection and charges on every tier, see :mod:`repro.kernels.rrqr`).
    selector:
        Selection kernel at the leaves and merge nodes:

        * ``"getf2"`` — partial-pivoting rows (the paper's ca-pivoting);
        * ``"rrqr"`` — strong-RRQR rows (CALU_PRRP, Khabou et al.,
          arXiv:1208.2451).  The selection tree carries no ``U`` factor; the
          panel's ``U11`` is a second no-pivoting elimination of the winner
          rows — exactly the redundant second phase the distributed code
          (:func:`repro.parallel.ptslu.ptslu_rank`) performs anyway.

    Returns
    -------
    TournamentResult
    """
    if b < 1:
        raise ValueError("panel width b must be >= 1")
    if len(blocks) == 0:
        raise ValueError("tournament needs at least one row block")
    if selector == "rrqr":
        return _tournament_rrqr(blocks, b, flops, schedule, kernel_tier)
    if selector != "getf2":
        raise ValueError(f"unknown tournament selector {selector!r}")
    batched = resolve_tier(kernel_tier) != "reference"
    if batched and local_kernel == "getf2":
        candidates = _leaf_candidates_batched(blocks, b, flops, kernel_tier)
    else:
        candidates = [
            local_candidates(
                rows, block, b, flops=flops, local_kernel=local_kernel,
                kernel_tier=kernel_tier,
            )
            for rows, block in blocks
        ]
    # Drop empty blocks (they can appear when m is not a multiple of P*b).
    candidates = [c for c in candidates if c.rows.shape[0] > 0]
    if not candidates:
        raise ValueError("all row blocks are empty")

    if schedule == "flat":
        return _flat_reduce(candidates, b, flops, batched)
    if schedule == "binary":
        return _binary_reduce(candidates, b, flops, batched)
    if schedule == "butterfly":
        return _butterfly_reduce(candidates, b, flops, batched)
    raise ValueError(f"unknown tournament schedule {schedule!r}")


def _tournament_rrqr(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray]],
    b: int,
    flops: Optional[FlopCounter],
    schedule: str,
    kernel_tier: Optional[str] = None,
) -> TournamentResult:
    """CALU_PRRP tournament: strong-RRQR selection, then a pivoted root LU.

    The reduction tree only *selects* the winner set — strong RRQR bounds how
    much any rejected row depends on the winners (``|L21| <= tau``), but its
    selection order says nothing about elimination order.  The panel's
    ``U11`` therefore comes from an LU with partial pivoting *of the winner
    block only*: a permutation inside the already-chosen ``b`` rows, so it
    costs no extra communication (every rank of the distributed TSLU performs
    it redundantly after the butterfly), while keeping the diagonal-block
    elimination as stable as GEPP.
    """
    candidates = [
        local_candidates_rrqr(rows, block, b, flops=flops, kernel_tier=kernel_tier)
        for rows, block in blocks
    ]
    candidates = [c for c in candidates if c.rows.shape[0] > 0]
    if not candidates:
        raise ValueError("all row blocks are empty")
    winner, rounds = _reduce_selected(
        candidates, b, flops, schedule,
        partial(merge_candidates_rrqr, kernel_tier=kernel_tier),
    )
    k = min(b, winner.rows.shape[0])
    res = getf2(winner.block[:k, :], flops=flops, kernel_tier="reference")
    order = res.perm[:k]
    return TournamentResult(
        winners=winner.rows[:k][order], U=np.triu(res.lu[:k, :]), rounds=rounds
    )


def _leaf_candidates_batched(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray]],
    b: int,
    flops: Optional[FlopCounter],
    kernel_tier: Optional[str],
) -> List[CandidateSet]:
    """Leaf step as batched ``getf2`` calls over same-shape block groups.

    Bit-identical to looping :func:`local_candidates` with the ``getf2``
    kernel: the batched factorization reproduces the reference pivot order
    exactly, and the candidate rows are gathered from the original blocks.
    Stray shapes (fringe blocks when ``m`` is not a multiple of ``P*b``) use
    the per-block path.
    """
    rows_arr = [np.asarray(r, dtype=np.int64) for r, _ in blocks]
    blk_arr = [np.asarray(blk, dtype=np.float64) for _, blk in blocks]
    out: List[Optional[CandidateSet]] = [None] * len(blocks)
    groups: dict = {}
    for i, blk in enumerate(blk_arr):
        groups.setdefault(blk.shape, []).append(i)
    for shape, idxs in groups.items():
        if len(idxs) < 2 or shape[0] == 0 or shape[1] == 0:
            for i in idxs:
                out[i] = local_candidates(
                    rows_arr[i], blk_arr[i], b, flops=flops, kernel_tier=kernel_tier
                )
            continue
        # The stack is a private temporary and the candidate rows are
        # gathered from the original blocks, so it can be factored in place.
        res = getf2_batched(
            np.stack([blk_arr[i] for i in idxs]), flops=flops, overwrite=True
        )
        k = min(b, shape[0])
        for s, i in enumerate(idxs):
            chosen = res.perm[s][:k]
            out[i] = CandidateSet(rows=rows_arr[i][chosen], block=blk_arr[i][chosen, :])
    return out


def _flat_reduce(
    candidates: List[CandidateSet],
    b: int,
    flops: Optional[FlopCounter],
    batched: bool = False,
) -> TournamentResult:
    if len(candidates) == 1:
        return _binary_reduce(candidates, b, flops, batched)
    # A left fold is inherently sequential; each merge depends on the last.
    acc = candidates[0]
    U = None
    rounds = 0
    for nxt in candidates[1:]:
        acc, U = merge_candidates(acc, nxt, b, flops=flops)
        rounds += 1
    return TournamentResult(winners=acc.rows, U=U[: acc.rows.shape[0], :], rounds=rounds)


def _binary_reduce(
    candidates: List[CandidateSet],
    b: int,
    flops: Optional[FlopCounter],
    batched: bool = False,
) -> TournamentResult:
    level = list(candidates)
    U = None
    rounds = 0
    while len(level) > 1:
        rounds += 1
        pairs = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        nxt, U = _merge_round(pairs, b, flops, batched)
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    winner = level[0]
    if U is None:
        # Single block: its own factorization provides U (reference tier —
        # these bits become the panel's U11).
        res = getf2(winner.block, flops=flops, kernel_tier="reference")
        U = np.triu(res.lu)
        winner = CandidateSet(rows=winner.rows[res.perm], block=winner.block[res.perm])
    return TournamentResult(
        winners=winner.rows, U=U[: winner.rows.shape[0], :], rounds=rounds
    )


def _butterfly_reduce(
    candidates: List[CandidateSet],
    b: int,
    flops: Optional[FlopCounter],
    batched: bool = False,
) -> TournamentResult:
    """All-reduction schedule: every participant redundantly merges at each level.

    Mirrors the communication pattern of the parallel TSLU; sequentially the
    redundant merges are executed too (that is exactly the extra work the
    paper trades for fewer messages).  With a non-reference tier each level's
    ``pow2`` redundant merges are one batched call.
    """
    p = len(candidates)
    if p == 1:
        return _binary_reduce(candidates, b, flops, batched)
    # Pad to a power of two by replicating the last candidate set; the
    # replicas never win over their originals because ties keep the first row.
    pow2 = 1
    while pow2 < p:
        pow2 *= 2
    current = list(candidates) + [candidates[-1]] * (pow2 - p)
    rounds = 0
    U = None
    k = 1
    while k < pow2:
        rounds += 1
        pairs = []
        for i in range(pow2):
            partner = i ^ k
            lo, hi = (i, partner) if i < partner else (partner, i)
            pairs.append((current[lo], current[hi]))
        current, U = _merge_round(pairs, b, flops, batched)
        k *= 2
    winner = current[0]
    return TournamentResult(
        winners=winner.rows, U=U[: winner.rows.shape[0], :], rounds=rounds
    )


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
