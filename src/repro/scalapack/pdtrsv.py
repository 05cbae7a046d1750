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
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..distsim.collectives import broadcast, reduce
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
    comm: Communicator,
    dist: BlockCyclic2D,
    LUloc: np.ndarray,
    rhs_blocks: RhsBlocks,
    nrhs: int,
    tag: object,
    lower: bool,
):
    """Shared SPMD body of the forward/backward substitution (one rank).

    Parameters
    ----------
    comm:
        The calling rank's communicator.
    dist:
        The square ``n x n`` block-cyclic distribution of the factors.
    LUloc:
        This rank's local piece of the packed LU factors (``L`` strictly
        below the diagonal with implicit unit diagonal, ``U`` on and above).
    rhs_blocks:
        Right-hand-side blocks owned by this rank, keyed by block index;
        block ``k`` must live on the diagonal owner ``(k % Pr, k % Pc)``.
    nrhs:
        Number of right-hand sides (all blocks are ``kb x nrhs``).
    tag:
        Tag namespace, unique per solve.
    lower:
        ``True`` for the unit-lower forward substitution, ``False`` for the
        upper back substitution.

    Returns
    -------
    (x_cols, x_blocks):
        ``x_cols`` holds the solution entries for every *local column* of
        this rank (ranks of grid column ``c`` end up with the solution
        blocks assigned to ``c``, courtesy of the column broadcasts);
        ``x_blocks`` maps each diagonal-owned block index to its solved
        ``kb x nrhs`` block.
    """
    grid = dist.grid
    myrow, mycol = grid.coords(comm.rank)
    my_gcols = dist.local_cols(mycol)
    nb = dist.num_block_cols()
    x_cols = np.zeros((my_gcols.shape[0], nrhs))
    x_blocks: RhsBlocks = {}
    scratch = FlopCounter()

    order = range(nb) if lower else range(nb - 1, -1, -1)
    for step, k in enumerate(order):
        g0, g1 = block_bounds(dist, k)
        kb = g1 - g0
        prow_k = k % grid.nprow
        pcol_k = k % grid.npcol
        root = grid.rank(prow_k, pcol_k)

        acc = None
        if myrow == prow_k:
            lr0 = (k // grid.nprow) * dist.block
            # Local columns already solved: strictly left of the block for
            # the forward sweep, strictly right of it for the backward sweep.
            # Both are contiguous runs of the ascending local column map.
            if lower:
                sel = slice(0, int(np.searchsorted(my_gcols, g0)))
            else:
                sel = slice(int(np.searchsorted(my_gcols, g1)), my_gcols.shape[0])
            width = sel.stop - sel.start
            if width:
                partial = LUloc[lr0 : lr0 + kb, sel] @ x_cols[sel]
                # Charge before the reduce ships `partial`, so the message
                # timestamps include the accumulation that produced it.
                comm.charge_flops(muladds=2.0 * kb * width * nrhs)
            else:
                partial = np.zeros((kb, nrhs))

            def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
                comm.charge_flops(muladds=float(a.size))
                return a + b

            if step > 0:
                acc = yield from reduce(
                    comm,
                    partial,
                    add,
                    root=root,
                    group=grid.row_ranks(prow_k),
                    tag=(tag, "red", k),
                    channel="row",
                )
            else:
                acc = partial

        xk = None
        if comm.rank == root:
            rhs = rhs_blocks[k] - acc
            scratch.add_muladds(float(kb * nrhs))
            lc0 = (k // grid.npcol) * dist.block
            diag = LUloc[lr0 : lr0 + kb, lc0 : lc0 + kb]
            if lower:
                xk = trsm_lower_unit(diag, rhs, flops=scratch)
            else:
                xk = trsm_upper(diag, rhs, flops=scratch)
            x_blocks[k] = xk
        comm.charge_counter(scratch)

        if mycol == pcol_k:
            xk = yield from broadcast(
                comm,
                xk,
                root=root,
                group=grid.column_ranks(pcol_k),
                tag=(tag, "bc", k),
                channel="col",
            )
            lc0 = (k // grid.npcol) * dist.block
            x_cols[lc0 : lc0 + kb] = xk
    return x_cols, x_blocks


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
    return (yield from _pdtrsv(comm, dist, LUloc, rhs_blocks, nrhs, tag, lower=True))


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
    return (yield from _pdtrsv(comm, dist, LUloc, rhs_blocks, nrhs, tag, lower=False))
