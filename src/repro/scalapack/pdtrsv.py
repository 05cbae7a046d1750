"""Distributed triangular solves on the 2-D block-cyclic layout (``PDTRSV``).

After ``pcalu`` (CALU or, with ``pivoting="pp"``, PDGETRF) leaves the packed
factors distributed over the process grid, solving ``L y = P b`` and ``U x = y`` is a blocked substitution
sweep over the ``ceil(n/b)`` block rows.  The routines here implement the
left-looking (fan-in) variant:

for each block ``k`` (ascending for the unit-lower forward substitution,
descending for the upper back substitution),

1. every process of the grid row owning block-row ``k`` multiplies its local
   pieces of the factor's off-diagonal blocks by the solution blocks it has
   already received, and those partial sums are combined by a binomial-tree
   reduction across the process *row* to the diagonal-block owner
   (``log2 Pc`` steps, ``Pc - 1`` messages, charged to the "row" channel);
2. the diagonal owner subtracts the accumulated sum from its right-hand-side
   block and solves the ``b x b`` diagonal triangle locally;
3. the solved block is broadcast down the process *column* owning
   block-column ``k`` (``log2 Pr`` steps, ``Pr - 1`` messages, "col"
   channel), where later steps — and the residual computation of iterative
   refinement — consume it.

Per triangular solve that is ``nb`` column broadcasts and ``nb - 1`` row
reductions (the first forward / last backward block has nothing to reduce),
i.e. ``(n/b)(log2 Pr + log2 Pc)`` message steps on the critical path —
the same collective structure as one outer iteration of the factorization,
which is what makes the solve phase latency-negligible next to it.

Right-hand sides are processed as one ``b x nrhs`` block per step, so a
multi-RHS solve is batched: the message *count* is independent of ``nrhs``
and only the payload words grow, exactly like ScaLAPACK's ``PDTRSM``-based
``PDGETRS``.

The communication structure above is what every rank is charged; the host
evaluates it once.  Each sweep is one *step op*
(:func:`repro.distsim.collectives.step`): every rank of the grid joins it
with its local factor piece and right-hand-side blocks, and the evaluator
:func:`_pdtrsv` walks the ``nb`` block steps a single time — the owning
row's partial sums, the row reduction, the diagonal solve, the column
broadcast — charging each rank what its own walk over every block step
charged, in the same order, through the same reduce and broadcast trees.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from ..distsim.collectives import step
from ..distsim.engine.group_ops import StepGroup
from ..distsim.vmpi import Communicator
from ..kernels.flops import FlopCounter
from ..kernels.trsm import trsm_lower_unit, trsm_upper
from ..layouts.block_cyclic import BlockCyclic2D

#: Per-rank solution blocks: block index -> (kb x nrhs) array.
RhsBlocks = Dict[int, np.ndarray]


def block_bounds(dist: BlockCyclic2D, k: int) -> Tuple[int, int]:
    """Global row/column range ``[g0, g1)`` covered by block ``k``."""
    g0 = k * dist.block
    return g0, min(dist.n, g0 + dist.block)


def diag_owner(dist: BlockCyclic2D, k: int) -> int:
    """Rank owning the diagonal block ``(k, k)``."""
    return dist.grid.rank(k % dist.grid.nprow, k % dist.grid.npcol)


def _pdtrsv(
    group: StepGroup,
    values: List[Tuple[np.ndarray, RhsBlocks]],
    dist: BlockCyclic2D,
    nrhs: int,
    tag: object,
    lower: bool,
) -> List[Tuple[np.ndarray, RhsBlocks]]:
    """Step evaluator of the forward/backward substitution over the whole grid.

    The step's group is every rank in rank order, so a member's position is
    its rank.  ``values[r]`` is rank ``r``'s ``(LUloc, rhs_blocks)``:

    LUloc:
        The rank's local piece of the packed LU factors (``L`` strictly
        below the diagonal with implicit unit diagonal, ``U`` on and above).
    rhs_blocks:
        Right-hand-side blocks owned by the rank, keyed by block index;
        block ``k`` must live on the diagonal owner ``(k % Pr, k % Pc)``.

    ``nrhs`` is the number of right-hand sides (all blocks are
    ``kb x nrhs``), ``tag`` the solve's tag namespace and ``lower`` selects
    the unit-lower forward substitution (``False``: the upper back
    substitution).

    Returns, per rank, ``(x_cols, x_blocks)``: ``x_cols`` holds the solution
    entries for every *local column* of the rank (ranks of grid column ``c``
    end up with the solution blocks assigned to ``c``, courtesy of the column
    broadcasts); ``x_blocks`` maps each block index the rank diagonal-owns to
    its solved ``kb x nrhs`` block.
    """
    comms = group.comms
    grid = dist.grid
    nb = dist.num_block_cols()
    # Local columns already solved at block k: strictly left of the block
    # for the forward sweep, strictly right of it for the backward sweep —
    # per grid column, a contiguous run of its ascending local column map.
    bounds = np.minimum(np.arange(nb + 1) * dist.block, dist.n)
    gcols = [dist.local_cols(c) for c in range(grid.npcol)]
    solved = [
        [(0, lo) for lo in np.searchsorted(g, bounds[:-1]).tolist()]
        if lower
        else [(hi, g.shape[0]) for hi in np.searchsorted(g, bounds[1:]).tolist()]
        for g in gcols
    ]
    x_cols = [np.zeros((gcols[grid.coords(r)[1]].shape[0], nrhs)) for r in range(grid.size)]
    x_blocks: List[RhsBlocks] = [{} for _ in range(grid.size)]
    adds = [_charged_add(comm) for comm in comms]
    scratch = FlopCounter()
    solve = trsm_lower_unit if lower else trsm_upper

    order = range(nb) if lower else range(nb - 1, -1, -1)
    for step_no, k in enumerate(order):
        g0, g1 = block_bounds(dist, k)
        kb = g1 - g0
        prow_k = k % grid.nprow
        pcol_k = k % grid.npcol
        root = grid.rank(prow_k, pcol_k)
        lr0 = (k // grid.nprow) * dist.block
        lc0 = (k // grid.npcol) * dist.block

        # 1. Partial sums on the owning process row.
        row = grid.row_ranks(prow_k)
        partials = []
        for c, r in enumerate(row):
            c0, c1 = solved[c][k]
            width = c1 - c0
            if width:
                partials.append(values[r][0][lr0 : lr0 + kb, c0:c1] @ x_cols[r][c0:c1])
                # Charged before the reduce ships it, so the message
                # timestamps include the accumulation that produced it.
                comms[r].charge_flops(muladds=2.0 * kb * width * nrhs)
            else:
                partials.append(np.zeros((kb, nrhs)))
        if step_no > 0:
            acc = group.collective(
                "reduce", row, partials, [adds[r] for r in row],
                root=root, tag=(tag, "red", k), channel="row",
            )[pcol_k]
        else:
            acc = partials[pcol_k]

        # 2. The diagonal solve on the root.
        LUroot = values[root][0]
        rhs = values[root][1][k] - acc
        scratch.add_muladds(float(kb * nrhs))
        try:
            xk = solve(LUroot[lr0 : lr0 + kb, lc0 : lc0 + kb], rhs, flops=scratch)
        except Exception as exc:
            raise group.failure(root, exc) from exc
        x_blocks[root][k] = xk
        comms[root].charge_counter(scratch)

        # 3. The column broadcast.
        column = grid.column_ranks(pcol_k)
        received = group.collective(
            "broadcast", column, [xk] * len(column),
            root=root, tag=(tag, "bc", k), channel="col",
        )
        for r, xr in zip(column, received):
            x_cols[r][lc0 : lc0 + kb] = xr
    return list(zip(x_cols, x_blocks))


def _charged_add(comm: Communicator):
    """The row reduction's operator, charging the receiving rank ``comm``."""

    def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        comm.charge_flops(muladds=float(a.size))
        return a + b

    return add


def pdtrsv_lower_unit(
    comm: Communicator,
    dist: BlockCyclic2D,
    LUloc: np.ndarray,
    rhs_blocks: RhsBlocks,
    nrhs: int,
    tag: object = "pdtrsv-l",
):
    """Blocked distributed forward substitution ``L y = rhs`` (unit-lower ``L``).

    ``L`` is read from the strictly-lower part of the packed ``LUloc`` (unit
    diagonal implicit), exactly as :func:`repro.kernels.trsm.trsm_lower_unit`
    does sequentially.  See the module docstring for the communication
    structure and :func:`_pdtrsv` for the parameters.
    """
    evaluator = partial(_pdtrsv, dist=dist, nrhs=nrhs, tag=tag, lower=True)
    return (yield from step(comm, (LUloc, rhs_blocks), evaluator, tag=tag))


def pdtrsv_upper(
    comm: Communicator,
    dist: BlockCyclic2D,
    LUloc: np.ndarray,
    rhs_blocks: RhsBlocks,
    nrhs: int,
    tag: object = "pdtrsv-u",
):
    """Blocked distributed back substitution ``U x = rhs`` (upper ``U``).

    ``U`` is read from the diagonal and above of the packed ``LUloc``.  See
    the module docstring for the communication structure.
    """
    evaluator = partial(_pdtrsv, dist=dist, nrhs=nrhs, tag=tag, lower=False)
    return (yield from step(comm, (LUloc, rhs_blocks), evaluator, tag=tag))
