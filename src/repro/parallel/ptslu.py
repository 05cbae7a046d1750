"""Distributed TSLU: the SPMD panel factorization of Section 3.

Each of the ``P`` ranks owns a block of the panel's rows (1-D layout).  The
algorithm is exactly the one in the paper:

1. every rank factors its local block with partial pivoting (classic or
   recursive kernel) and keeps its ``b`` candidate pivot rows;
2. an all-reduction with a butterfly communication pattern merges candidate
   sets — at each of the ``log2 P`` levels a rank exchanges its current
   ``b x b`` candidate block with its partner and both redundantly factor the
   stacked ``2b x b`` matrix;
3. after the butterfly every rank knows the ``b`` global pivot rows and the
   ``U`` factor; each rank forms its local rows of ``L`` with a triangular
   solve against ``U11``.

Communication: each rank sends exactly ``log2 P`` messages of ``b^2`` words —
the latency win over ScaLAPACK's PDGETF2 (2 messages *per column*, i.e.
``2 b log2 P`` per panel) that the whole paper is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import tournament
from ..core.strategies import get_strategy, resolve_pivoting
from ..core.tournament import CandidateSet
from ..distsim.collectives import allreduce, broadcast
from ..distsim.engine import ExecutionEngine
from ..distsim.engine.base import RedundantOp
from ..distsim.tracing import RunTrace
from ..distsim.vmpi import Communicator, run_spmd
from ..kernels.flops import FlopCounter
from ..kernels.getf2 import getf2_nopivot
from ..kernels.trsm import trsm_right_upper
from ..layouts.block1d import Block1D, BlockCyclic1D
from ..machines.model import MachineModel


@dataclass
class PTSLUResult:
    """Result of a distributed TSLU run.

    Attributes
    ----------
    L:
        Global ``m x k`` unit-lower-trapezoidal factor (assembled from the
        per-rank pieces, winners first).
    U:
        ``k x b`` upper-triangular factor (known redundantly by every rank).
    perm:
        Row permutation with ``A[perm, :] = L @ U``.
    winners:
        Global indices of the selected pivot rows (``perm[:k]``).
    trace:
        Per-rank communication/computation trace of the run.
    """

    L: np.ndarray
    U: np.ndarray
    perm: np.ndarray
    winners: np.ndarray
    trace: RunTrace


def _shared(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Mark arrays that several ranks will hold as read-only.

    An in-place edit by one rank then raises instead of silently corrupting
    the other ranks' copies of the value.
    """
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _eliminate_winners(
    rows: np.ndarray, block: np.ndarray, selector: str
) -> Tuple[Tuple[np.ndarray, np.ndarray], FlopCounter]:
    """Second phase of ca-pivoting: factor the winning block *without* pivoting.

    Returns ``(winner rows in elimination order, packed LU of their block)``
    and the flops.  The sequential tournament reads the same ``U`` off its
    root merge instead; here every rank pays the paper's redundant second
    phase.  A strong-RRQR selection has no root LU on either path, so
    CALU_PRRP shares :func:`~repro.core.tournament.order_winners`.
    """
    flops = FlopCounter()
    if selector == "rrqr":
        rows, packed = tournament.order_winners(CandidateSet(rows, block), flops)
    else:
        packed = getf2_nopivot(block, flops=flops)
    return _shared(rows, packed), flops


class _TournamentOp(RedundantOp):
    """The pivot tournament as an all-reduce operator.

    ``combine`` is :func:`~repro.core.tournament.merge_pairs` on the wire
    format (``(rows, block)`` tuples, ``b + b^2`` words); ``finish``
    eliminates the winning block.  Every rank of the butterfly performs both
    redundantly — the computation the paper trades for fewer messages —
    which the host need not repeat (see
    :class:`~repro.distsim.engine.base.RedundantOp`).  The schedule is the
    all-reduce's (fold + recursive doubling), not the sequential padded
    butterfly: its pairing is what the simulated message counts are made of.
    """

    def __init__(
        self,
        comm: Communicator,
        b: int,
        selector: str,
        kernel_tier: Optional[str] = None,
    ) -> None:
        super().__init__(comm)
        self.b = b
        self.selector = selector
        self.kernel_tier = kernel_tier

    def combine(self, pairs):
        merged = tournament.merge_pairs(
            [(CandidateSet(*x), CandidateSet(*y)) for x, y in pairs],
            self.b, self.selector, self.kernel_tier,
        )
        return [(_shared(w.rows, w.block), flops) for w, flops, _ in merged]

    def finish(self, value):
        return _eliminate_winners(value[0], value[1], self.selector)


def ptslu_rank(
    comm: Communicator,
    local_rows: np.ndarray,
    local_block: np.ndarray,
    b: int,
    group: Optional[Sequence[int]] = None,
    local_kernel: str = "getf2",
    channel: str = "col",
    tag: str = "tslu",
    compute_L: bool = True,
    kernel_tier: Optional[str] = None,
    precomputed_candidate: Optional[Tuple[CandidateSet, FlopCounter]] = None,
    selector: str = "getf2",
):
    """The SPMD body of TSLU executed by one rank.

    Parameters
    ----------
    comm:
        The rank's communicator.
    local_rows:
        Global indices of the panel rows this rank owns.
    local_block:
        The corresponding entries (``len(local_rows) x b``).
    b:
        Panel width.
    group:
        Ranks participating in this panel factorization (defaults to all).
    local_kernel:
        ``"getf2"`` or ``"rgetf2"`` for the local factorization.
    channel:
        Cost channel ("col" inside CALU, where the panel lives in a process
        column).
    tag:
        Tag namespace (must differ between concurrent panels).
    kernel_tier:
        Kernel tier for the rank-local factorizations (None: the ``"auto"``
        default) and, with ``selector="rrqr"``, for the tournament merges.
        Only the pivot order flows into the candidate set, so the fast tier
        leaves the simulated results bit-identical.
    precomputed_candidate:
        Optional ``(candidate, flops)`` pair computed ahead of the SPMD run
        by :func:`~repro.core.tournament.leaf_candidates` over all ranks'
        blocks (what :func:`ptslu` does) — exactly what this rank's own leaf
        step produces, so the trace is unchanged; only the host-side overhead
        of ``P`` separate leaf factorizations is gone.
    selector:
        Tournament selection kernel: ``"getf2"`` (partial-pivoting rows, the
        paper's CALU) or ``"rrqr"`` (strong-RRQR rows, CALU_PRRP).  With
        ``"rrqr"`` the winner block is additionally re-ordered by a redundant
        rank-local LU with partial pivoting before the no-pivoting second
        phase — a permutation inside the already-chosen rows, identical on
        every rank and free of communication.

    Returns
    -------
    dict
        ``{"winners", "U", "rows", "L_local"}`` — the global pivot rows, the
        shared ``U`` factor, this rank's row indices and its block of ``L``.
    """
    # Keep the default all-ranks group as a ``range``: the collective layer
    # hashes and position-indexes the group per participant, which a range
    # does in O(1) where a materialized list costs O(P) each (O(P²) per
    # tournament round at figure-scale P).
    group = list(group) if group is not None else range(comm.size)
    if precomputed_candidate is None:
        (precomputed_candidate,) = tournament.leaf_candidates(
            [(local_rows, local_block)], b, selector, local_kernel, kernel_tier
        )
    candidate, leaf_flops = precomputed_candidate
    comm.charge_counter(leaf_flops)

    # Butterfly all-reduction whose operator is the tournament merge and
    # whose epilogue eliminates the winner block: every rank ends up with the
    # same (winner rows, packed LU of the winner block), read-only.  Each
    # level exchanges the pair (row indices, candidate block) — ``b + b^2``
    # words, as in the real algorithm, whichever selector merges them.
    winners, packed = yield from allreduce(
        comm,
        (candidate.rows, candidate.block),
        _TournamentOp(comm, b, selector, kernel_tier),
        group=group,
        tag=tag,
        channel=channel,
    )
    k = winners.shape[0]
    U = np.triu(packed)
    U11 = U[:, :k]

    # Local rows of L: solve L_local @ U11 = A_local (columns 1..k).
    if compute_L and local_block.shape[0] > 0:
        scratch = FlopCounter()
        L_local = trsm_right_upper(U11, np.asarray(local_block)[:, :k], flops=scratch)
        comm.charge_counter(scratch)
    else:
        L_local = np.zeros((np.asarray(local_block).shape[0] if compute_L else 0, k))

    return {
        "winners": winners,
        "U": U,
        "rows": np.asarray(local_rows, dtype=np.int64),
        "L_local": L_local,
    }


def _pp_maxloc(a: Tuple, b: Tuple) -> Tuple:
    """All-reduce operator for the distributed partial-pivoting panel.

    Entries are ``(|value|, value, global_row, owner_rank, owner_local_row)``;
    ties break towards the smallest *global* row index.  Sequential ``getf2``
    scans rows in swap-permuted order instead (it physically swaps pivot rows
    down), so on an exact magnitude tie the two can legitimately pick
    different rows of equal value — the pivot sequences agree whenever the
    column maximum is unique (always, for generic matrices).
    """
    if (a[0], -a[2]) >= (b[0], -b[2]):
        return a
    return b


def pp_panel_rank(
    comm: Communicator,
    local_rows: np.ndarray,
    local_block: np.ndarray,
    b: int,
    npivots: int,
    group: Optional[Sequence[int]] = None,
    channel: str = "col",
    tag: str = "tslu-pp",
):
    """Distributed *partial pivoting* panel factorization (one rank's body).

    The communication baseline TSLU is measured against, on TSLU's own 1-D
    row layout: partial pivoting is performed column by column — per column
    one max-loc all-reduction picks the global pivot and one broadcast ships
    the (eliminated) pivot row's trailing segment — i.e. ``~2 b log2 P``
    messages per panel versus the tournament's ``log2 P``.  This is the
    PDGETF2 pattern of :mod:`repro.scalapack.pdgetf2` transplanted to the
    ``ptslu`` API, so the two pivoting strategies can be compared message for
    message inside one driver.  Rows are never physically swapped (eliminated
    rows are only *marked*), so on an exact magnitude tie the pivot row may
    differ from sequential ``getf2``'s swap-ordered scan — see
    :func:`_pp_maxloc`; for matrices with unique column maxima the pivot
    sequence matches the sequential baseline.

    Returns the same dict as :func:`ptslu_rank` (``winners``/``U``/``rows``/
    ``L_local``).
    """
    group = list(group) if group is not None else list(range(comm.size))
    rows = np.asarray(local_rows, dtype=np.int64)
    W = np.array(local_block, dtype=np.float64)
    chosen = np.zeros(rows.shape[0], dtype=bool)
    pivot_step = np.full(rows.shape[0], -1, dtype=np.int64)
    winners: List[int] = []
    U = np.zeros((npivots, b))
    L_local = np.zeros((rows.shape[0], npivots))
    scratch = FlopCounter()

    for jc in range(npivots):
        # Local pivot candidate among the rows not yet eliminated.
        active = np.nonzero(~chosen)[0]
        if active.size:
            vals = W[active, jc]
            li = int(np.argmax(np.abs(vals)))
            cand = (
                float(abs(vals[li])),
                float(vals[li]),
                int(rows[active[li]]),
                comm.rank,
                int(active[li]),
            )
            comm.charge_flops(comparisons=float(active.size - 1))
        else:
            cand = (-1.0, 0.0, 1 << 60, -1, -1)
        best = yield from allreduce(
            comm, cand, _pp_maxloc, group=group, tag=(tag, "amax", jc), channel=channel
        )
        _, _, grow, owner, owner_li = best
        winners.append(int(grow))

        # The owner broadcasts the pivot row's trailing segment (already
        # updated by the previous eliminations) down the group.
        if comm.rank == owner:
            seg = W[owner_li, jc:].copy()
            chosen[owner_li] = True
            pivot_step[owner_li] = jc
            L_local[owner_li, jc] = 1.0
        else:
            seg = None
        seg = yield from broadcast(
            comm, seg, root=owner, group=group, tag=(tag, "prow", jc), channel=channel
        )
        U[jc, jc:] = seg

        # Local elimination below the pivot.
        remaining = np.nonzero(~chosen)[0]
        if remaining.size and seg[0] != 0.0:
            mult = W[remaining, jc] / seg[0]
            L_local[remaining, jc] = mult
            scratch.add_divides(float(remaining.size))
            if jc + 1 < b:
                W[remaining, jc + 1 :] -= np.outer(mult, seg[1:])
                scratch.add_muladds(2.0 * remaining.size * (b - jc - 1))
            comm.charge_counter(scratch)
            scratch = FlopCounter()

    return {
        "winners": np.asarray(winners, dtype=np.int64),
        "U": np.triu(U),
        "rows": rows,
        "L_local": L_local,
    }


def ptslu(
    A: np.ndarray,
    nprocs: int,
    layout: str = "block",
    block_size: Optional[int] = None,
    local_kernel: str = "getf2",
    machine: Optional[MachineModel] = None,
    engine: Union[None, str, ExecutionEngine] = None,
    kernel_tier: Optional[str] = None,
    pivoting: Optional[str] = None,
) -> PTSLUResult:
    """Driver: distribute an ``m x b`` panel, run SPMD TSLU, gather the factors.

    Parameters
    ----------
    A:
        The panel.
    nprocs:
        Number of ranks.
    layout:
        ``"block"`` (contiguous row blocks) or ``"block_cyclic"``.
    block_size:
        Row-block size for the block-cyclic layout (default: panel width).
    local_kernel:
        Local factorization kernel (``"getf2"`` / ``"rgetf2"``).
    machine:
        Machine model pricing the run (default: unit-latency machine).
    engine:
        Execution engine for the SPMD run ("coroutine", an
        :class:`~repro.distsim.engine.ExecutionEngine` instance, or
        ``None`` for that default).
    kernel_tier:
        Kernel tier for the rank-local arithmetic (None: the ``"auto"``
        default).  With a non-reference tier the ``getf2`` leaf
        factorizations of all ranks share batched calls — the candidate sets
        and flop charges are identical, only the host-side overhead of ``P``
        sequential Python-loop factorizations is removed.
    pivoting:
        Pivoting strategy (None: the ``"ca"`` default, see
        :mod:`repro.core.strategies`): ``"ca"`` (the paper's tournament),
        ``"ca_prrp"`` (strong-RRQR tournament — same ``log2 P`` messages) or
        ``"pp"`` (column-by-column partial pivoting, ``~2 b log2 P``
        messages — the baseline of the paper's comparison).

    Returns
    -------
    PTSLUResult
    """
    A = np.asarray(A, dtype=np.float64)
    m, b = A.shape
    strategy = get_strategy(resolve_pivoting(pivoting))
    if layout == "block":
        dist: object = Block1D(m, nprocs)
    elif layout == "block_cyclic":
        dist = BlockCyclic1D(m, block_size or b, nprocs)
    else:
        raise ValueError(f"unknown layout {layout!r}")

    blocks = [(rows, A[rows, :]) for rows in map(dist.rows_of, range(nprocs))]

    if strategy.tournament:
        # The leaf step of all ranks at once — the host batches same-shape
        # blocks, each rank is charged exactly its own factorization.
        leaves = tournament.leaf_candidates(
            blocks, b, strategy.selector, local_kernel, kernel_tier
        )

        def rank_fn(comm: Communicator):
            return (
                yield from ptslu_rank(
                    comm,
                    *blocks[comm.rank],
                    b,
                    local_kernel=local_kernel,
                    kernel_tier=kernel_tier,
                    precomputed_candidate=leaves[comm.rank],
                    selector=strategy.selector,
                )
            )

    else:
        npivots = min(m, b)

        def rank_fn(comm: Communicator):
            return (yield from pp_panel_rank(comm, *blocks[comm.rank], b, npivots))

    trace = run_spmd(nprocs, rank_fn, machine=machine, engine=engine)
    results = trace.results

    # A private copy: the ranks' winner rows are shared and read-only.
    winners = np.array(results[0]["winners"], dtype=np.int64)
    U = np.asarray(results[0]["U"], dtype=np.float64)
    k = winners.shape[0]

    # Assemble the global L: winners first (in pivot order), remaining rows in
    # ascending global order, exactly like the sequential TSLU.
    mask = np.ones(m, dtype=bool)
    mask[winners] = False
    rest = np.nonzero(mask)[0]
    perm = np.concatenate([winners, rest]).astype(np.int64)

    L_by_row = np.zeros((m, k))
    for res in results:
        rows = res["rows"]
        if rows.shape[0]:
            L_by_row[rows, :] = res["L_local"]
    L = L_by_row[perm, :]

    return PTSLUResult(L=L, U=U, perm=perm, winners=winners, trace=trace)
