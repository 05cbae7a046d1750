"""Shared block right-looking driver for distributed LU factorizations.

Both CALU (Section 4 of the paper) and ScaLAPACK's PDGETRF follow the same
outer iteration; they differ *only* in how the panel (block-column) is
factored.  This module implements that outer iteration once, parameterised by
a panel-factorization callback, so the comparison between the two algorithms
is an apples-to-apples comparison of their panel strategies — exactly the
structure of the paper's argument.

Per iteration ``j`` (block column of width ``b``):

1. the processes of the grid column owning block-column ``j`` factor the
   panel (callback) and return the row swaps it decided on;
2. each of those processes broadcasts, along its process *row*, the swap list
   and its local piece of the packed panel factors (the ``L`` blocks);
3. every process applies the swaps to its local columns outside the panel;
4. the processes of the grid row owning block-row ``j`` compute their local
   pieces of ``U12`` with a triangular solve against ``L11``;
5. each of those processes broadcasts its ``U12`` piece down its process
   *column*;
6. every process updates its local trailing block ``A22 -= L21 U12``.

Steps 2-6 are identical for CALU and PDGETRF (and their message counts are of
order ``(n/b)(log2 Pr + log2 Pc)``); the panel step is where CALU saves a
factor ``b`` in latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.solve import checked_operand
from ..distsim.tracing import RunTrace
from ..distsim.vmpi import Communicator, run_spmd
from ..kernels.getf2 import PackedFactors
from ..layouts.block_cyclic import BlockCyclic2D
from ..layouts.grid import ProcessGrid
from ..machines.model import MachineModel
from ..matmul import MatmulBackend, get_backend
from ..scalapack.pdlaswp import apply_swaps_to_permutation, pdlaswp

#: Signature of a panel factorization callback.
#:
#: ``panel_fn(comm, dist, Aloc, j0, jb, col_group, tag)`` is a *generator
#: function* driven with ``yield from``; its return value is ``swaps``, the
#: ordered list of global row swaps chosen by the panel.  The callback is
#: invoked only on the ranks of ``col_group`` and must leave the packed panel
#: factors in the local panel columns of ``Aloc``.
PanelFactorizer = Callable[..., object]


@dataclass
class DistributedLUResult(PackedFactors):
    """Factors gathered from a distributed block LU run.

    Attributes
    ----------
    packed:
        The gathered ``m x n`` factored matrix, the one array the result
        holds; ``L`` and ``U`` are built from it on demand (see
        :class:`~repro.kernels.getf2.PackedFactors`).
    perm:
        Row permutation with ``A[perm, :] = L @ U``.
    swaps:
        The full ordered swap sequence (useful for replaying pivoting).
    trace:
        Per-rank communication/computation trace.
    """

    packed: np.ndarray
    perm: np.ndarray
    swaps: List[Tuple[int, int]]
    trace: RunTrace


def block_right_looking_rank(
    comm: Communicator,
    dist: BlockCyclic2D,
    Aloc: np.ndarray,
    panel_fn: PanelFactorizer,
    backend: MatmulBackend,
):
    """SPMD body of the block right-looking factorization (one rank).

    The panel broadcast and the trailing update (steps 2 and 4-6) are owned
    by the distributed-matmul ``backend``; the default ``summa`` backend
    reproduces the historical inlined steps bit-for-bit.

    Returns a dict with the rank's final local array (which the driver takes
    out again once gathered) and the swap list (identical on every rank).
    """
    grid = dist.grid
    myrow, mycol = grid.coords(comm.rank)
    my_grows = dist.local_rows(myrow)  # global rows stored here (ascending)
    my_gcols = dist.local_cols(mycol)  # global cols stored here (ascending)
    Aloc = np.array(Aloc, dtype=np.float64)
    b = dist.block
    k = min(dist.m, dist.n)
    all_swaps: List[Tuple[int, int]] = []

    for j0 in range(0, k, b):
        jb = min(b, k - j0)
        pcol_owner = (j0 // b) % grid.npcol  # grid column owning block-column j
        prow_owner = (j0 // b) % grid.nprow  # grid row owning block-row j

        # ------- 1. panel factorization, on the grid column owning the panel
        payload = None
        if mycol == pcol_owner:
            swaps = yield from panel_fn(
                comm, dist, Aloc, j0, jb, grid.column_ranks(pcol_owner), tag=("panel", j0)
            )
            act_lrows = np.nonzero(my_grows >= j0)[0]
            payload = {
                "swaps": swaps,
                "rows": my_grows[act_lrows],
                "panel": Aloc[np.ix_(act_lrows, dist.block_local_cols(j0, jb))],
            }

        # ----------------------- 2. broadcast swaps + packed panel along rows
        payload = yield from backend.share_panel(
            comm, grid, myrow, pcol_owner, payload, j0
        )
        swaps = payload["swaps"]
        packed_rows = payload["rows"]  # global indices, ascending, >= j0
        packed_panel = payload["panel"]  # len(packed_rows) x jb
        all_swaps.extend(swaps)

        # --------------------------- 3. apply the swaps outside the panel columns
        non_panel_lcols = np.nonzero((my_gcols < j0) | (my_gcols >= j0 + jb))[0]
        yield from pdlaswp(
            comm,
            dist,
            Aloc,
            swaps,
            non_panel_lcols,
            tag=("laswp", j0),
            channel="col",
        )

        # Extract L11 / L21 from the packed panel broadcast.  The diagonal
        # block is passed packed: the triangular solve reads only its strict
        # lower part (unit diagonal implied), so no tril + eye temporaries
        # are materialised.
        diag_sel = (packed_rows >= j0) & (packed_rows < j0 + jb)
        trail_sel = packed_rows >= j0 + jb
        L11 = None
        if myrow == prow_owner:
            L11 = packed_panel[diag_sel, :]
        L21_local = packed_panel[trail_sel, :]

        # ---------- 4-6. U12 solve + broadcast + trailing update (the backend)
        trail_lcols = np.nonzero(my_gcols >= j0 + jb)[0]
        trail_lrows = np.nonzero(my_grows >= j0 + jb)[0]
        yield from backend.update_trailing(
            comm, dist, Aloc, L11, L21_local, j0, jb, trail_lrows, trail_lcols
        )

    return {"Aloc": Aloc, "swaps": all_swaps}


def run_block_lu(
    A: np.ndarray,
    grid: ProcessGrid,
    block_size: int,
    panel_factory: Callable[[], PanelFactorizer],
    machine: Optional[MachineModel] = None,
    matmul: Optional[str] = None,
) -> DistributedLUResult:
    """Scatter ``A``, run the distributed factorization, gather the factors.

    Parameters
    ----------
    A:
        The global matrix (``m x n``, ``m >= n``).
    grid:
        The process grid to run on.
    block_size:
        The block size ``b`` of the 2-D block-cyclic distribution.
    panel_factory:
        Zero-argument callable returning the panel factorization callback
        (a factory so each run gets a fresh, stateless callback).
    machine:
        Machine model pricing the run.
    matmul:
        Distributed-matmul backend for the trailing update ("summa", "caps",
        or ``None`` for the ``"summa"`` default).

    Returns
    -------
    DistributedLUResult

    Raises
    ------
    ValueError
        If ``A`` is complex or has a NaN or infinite entry, before any rank
        starts.
    """
    A = checked_operand("A", A)
    m, n = A.shape
    dist = BlockCyclic2D(m, n, block_size, grid)
    locals_in = dist.scatter(A)
    panel_fn = panel_factory()
    backend = get_backend(matmul)

    def rank_fn(comm: Communicator):
        return (
            yield from block_right_looking_rank(
                comm, dist, locals_in[comm.rank], panel_fn, backend
            )
        )

    trace = run_spmd(grid.size, rank_fn, machine=machine)

    # ``pop``: the gathered matrix replaces the per-rank blocks, so the trace
    # must not keep a second copy of the factors alive.
    packed = dist.gather({r: res.pop("Aloc") for r, res in enumerate(trace.results)})
    swaps = trace.results[0]["swaps"]
    perm = apply_swaps_to_permutation(np.arange(m, dtype=np.int64), swaps)
    return DistributedLUResult(packed=packed, perm=perm, swaps=swaps, trace=trace)
