"""SUMMA distributed matmul backend (the classical, bandwidth-``Θ(n²/√P)`` one).

SUMMA (van de Geijn-Watts) multiplies 2-D block-cyclic operands by marching
over the inner dimension in panels of width ``b``: at step ``j`` the grid
column owning block-column ``j`` of ``A`` broadcasts its panel along process
rows, the grid row owning block-row ``j`` of ``B`` broadcasts its panel along
process columns, and every process accumulates the local outer product.  This
is exactly the communication skeleton of the trailing update inside the block
right-looking LU driver — which is why the ``summa`` backend's trailing-update
adapter (inherited from :class:`~repro.matmul.base.MatmulBackend` with
``local_multiply=None``) reproduces the seed driver bit-for-bit.

Per-channel message/word counts of the standalone ``pdgemm`` are closed-form
(see :func:`repro.models.matmul_model.summa_message_counts`): with
``s = ceil(k/b)`` steps on a ``Pr x Pc`` grid,

* row channel: ``s * Pr * (Pc - 1)`` messages carrying ``(Pc - 1) * m * k``
  words in total;
* col channel: ``s * Pc * (Pr - 1)`` messages carrying ``(Pr - 1) * k * n``
  words in total.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..distsim.collectives import broadcast
from ..distsim.vmpi import Communicator, run_spmd
from ..kernels.flops import FlopCounter
from ..kernels.gemm import gemm_update
from ..layouts.block_cyclic import BlockCyclic2D
from ..layouts.grid import ProcessGrid
from ..machines.model import MachineModel
from .base import MatmulBackend, PdgemmResult


def summa_rank(
    comm: Communicator,
    dA: BlockCyclic2D,
    dB: BlockCyclic2D,
    Aloc: np.ndarray,
    Bloc: np.ndarray,
    Cloc: np.ndarray,
):
    """SPMD body of SUMMA on one rank: accumulate ``Cloc += (A @ B)_loc``."""
    grid = dA.grid
    myrow, mycol = grid.coords(comm.rank)
    b = dA.block
    k = dA.n  # inner dimension
    scratch = FlopCounter()

    for j0 in range(0, k, b):
        jb = min(b, k - j0)
        owner_col = (j0 // b) % grid.npcol  # grid column owning A's block-col
        owner_row = (j0 // b) % grid.nprow  # grid row owning B's block-row

        # ---------------------- broadcast the A panel along process rows
        if mycol == owner_col:
            Apanel = np.ascontiguousarray(Aloc[:, dA.block_local_cols(j0, jb)])
        else:
            Apanel = None
        Apanel = yield from broadcast(
            comm,
            Apanel,
            root=grid.rank(myrow, owner_col),
            group=grid.row_ranks(myrow),
            tag=("summaA", j0),
            channel="row",
        )

        # ------------------- broadcast the B panel down process columns
        if myrow == owner_row:
            Bpanel = np.ascontiguousarray(Bloc[dB.block_local_rows(j0, jb), :])
        else:
            Bpanel = None
        Bpanel = yield from broadcast(
            comm,
            Bpanel,
            root=grid.rank(owner_row, mycol),
            group=grid.column_ranks(mycol),
            tag=("summaB", j0),
            channel="col",
        )

        # -------------------------------------- local rank-jb accumulation
        if Cloc.size:
            gemm_update(Cloc, Apanel, Bpanel, alpha=1.0, flops=scratch)
            comm.charge_counter(scratch)

    return Cloc


class SummaBackend(MatmulBackend):
    """The default backend: SUMMA standalone, classical local trailing update."""

    name = "summa"
    local_multiply = None  # seed-identical gemm_update path

    def pdgemm(
        self,
        A: np.ndarray,
        B: np.ndarray,
        C: Optional[np.ndarray] = None,
        grid: Optional[ProcessGrid] = None,
        block_size: int = 16,
        machine: Optional[MachineModel] = None,
    ) -> PdgemmResult:
        """Compute ``C += A @ B`` with SUMMA over a 2-D block-cyclic layout."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        m, k = A.shape
        kb, n = B.shape
        if kb != k:
            raise ValueError(f"inner dimensions disagree: {A.shape} @ {B.shape}")
        if grid is None:
            grid = ProcessGrid(1, 1)
        C = np.zeros((m, n)) if C is None else np.array(C, dtype=np.float64)
        if C.shape != (m, n):
            raise ValueError(f"C has shape {C.shape}, expected {(m, n)}")

        dA = BlockCyclic2D(m, k, block_size, grid)
        dB = BlockCyclic2D(k, n, block_size, grid)
        dC = BlockCyclic2D(m, n, block_size, grid)
        A_loc = dA.scatter(A)
        B_loc = dB.scatter(B)
        C_loc = dC.scatter(C)

        def rank_fn(comm: Communicator):
            return (
                yield from summa_rank(
                    comm, dA, dB, A_loc[comm.rank], B_loc[comm.rank],
                    C_loc[comm.rank],
                )
            )

        trace = run_spmd(grid.size, rank_fn, machine=machine)
        Cout = dC.gather({r: res for r, res in enumerate(trace.results)})
        return PdgemmResult(C=Cout, trace=trace)
