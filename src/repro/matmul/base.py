"""Common interface of the pluggable distributed-matmul backends.

The block right-looking LU driver (:mod:`repro.parallel.driver`) historically
inlined three communication/computation steps that are really the business of
a distributed matrix multiply:

* the row broadcast of the packed panel factors (``L21`` and the swap list);
* the column broadcast of the computed ``U12`` block row;
* the local Schur-complement update ``A22 -= L21 @ U12``.

This module factors those steps behind a backend object so the multiply
algorithm becomes a knob (``matmul=``), exactly like ``pivoting=``.  A
backend owns two things:

1. the *trailing-update adapter* used inside ``pcalu`` (CALU and PDGETRF)
   (:meth:`MatmulBackend.share_panel` + :meth:`MatmulBackend.update_trailing`);
2. a *standalone* distributed ``pdgemm`` entry point
   (:meth:`MatmulBackend.pdgemm`) computing ``C += A @ B`` from scratch.

The default ``summa`` backend reproduces the historical driver steps
bit-for-bit — same tags, same groups, same channels, same arithmetic — so
traces and results are identical to the pre-refactor code.  The ``caps``
backend replaces the local product with Strassen's recursion and provides a
communication-optimal BFS/DFS Strassen ``pdgemm``
(:mod:`repro.matmul.caps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..distsim.collectives import broadcast
from ..distsim.tracing import RunTrace
from ..distsim.vmpi import Communicator
from ..layouts.block_cyclic import BlockCyclic2D
from ..scalapack.pdgemm import pdgemm_trailing_update
from ..scalapack.pdtrsm import pdtrsm_block_row


@dataclass
class PdgemmResult:
    """Result of a standalone distributed multiply.

    Attributes
    ----------
    C:
        The gathered global product (``C_in + A @ B``).
    trace:
        Per-rank communication/computation trace of the run.
    """

    C: np.ndarray
    trace: RunTrace


class MatmulBackend:
    """Base class of distributed-matmul backends.

    Subclasses set :attr:`name` and :attr:`local_multiply` (``None`` keeps the
    classical in-place GEMM update, preserving bit-identical results) and
    implement :meth:`pdgemm`.  The two trailing-update hooks below reproduce
    the historical driver steps; they are shared because the *communication*
    of the trailing update (panel row broadcast, U12 column broadcast) is the
    same for both backends — only the local product differs.
    """

    #: Registry key of the backend.
    name: str = "base"

    #: Local multiply kernel for the trailing update: ``None`` means the
    #: classical ``gemm_update`` fast path (bit-identical to the seed);
    #: otherwise a callable ``multiply(A, B, flops=...) -> A @ B``.
    local_multiply = None

    # ------------------------------------------------- trailing-update adapter
    def share_panel(self, comm: Communicator, grid, myrow: int, pcol_owner: int,
                    payload, j0: int):
        """Broadcast the packed panel (swaps + L blocks) along the process row.

        Returns the resumable generator of the broadcast (drive it with
        ``payload = yield from backend.share_panel(...)``).  Tag, group and
        channel are exactly the historical driver step 2.
        """
        return broadcast(
            comm,
            payload,
            root=grid.rank(myrow, pcol_owner),
            group=grid.row_ranks(myrow),
            tag=("Lbcast", j0),
            channel="row",
        )

    def update_trailing(
        self,
        comm: Communicator,
        dist: BlockCyclic2D,
        Aloc: np.ndarray,
        L11: Optional[np.ndarray],
        L21_local: np.ndarray,
        j0: int,
        jb: int,
        trail_lrows: np.ndarray,
        trail_lcols: np.ndarray,
    ):
        """Driver steps 4-6: U12 solve, U12 column broadcast, local update.

        Generator (drive with ``yield from``).  The communication — one
        column broadcast per panel with tag ``("Ubcast", j0)`` — is identical
        for every backend; the Schur update dispatches to
        :attr:`local_multiply`.
        """
        grid = dist.grid
        myrow, mycol = grid.coords(comm.rank)
        prow_owner = (j0 // dist.block) % grid.nprow

        # ------------------------------ U12 block-row (grid row prow_owner)
        u12_local = None
        if myrow == prow_owner and trail_lcols.size:
            diag_lrows = dist.block_local_rows(j0, jb)
            u12_local = pdtrsm_block_row(comm, L11, Aloc, diag_lrows, trail_lcols)

        # --------------------------------- broadcast U12 down grid columns
        u12_local = yield from broadcast(
            comm,
            u12_local,
            root=grid.rank(prow_owner, mycol),
            group=grid.column_ranks(mycol),
            tag=("Ubcast", j0),
            channel="col",
        )

        # -------------------------------------------- trailing matrix update
        if trail_lrows.size and trail_lcols.size and u12_local is not None:
            pdgemm_trailing_update(
                comm,
                Aloc,
                L21_local,
                u12_local,
                trail_lrows,
                trail_lcols,
                multiply=self.local_multiply,
            )

    # ------------------------------------------------------ standalone pdgemm
    def pdgemm(self, A, B, C=None, grid=None, block_size=16,
               machine=None) -> PdgemmResult:
        """Distributed ``C += A @ B`` from scratch (scatter, run, gather)."""
        raise NotImplementedError
