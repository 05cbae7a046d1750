"""Simulated ScaLAPACK LU driver (``PDGETRF``).

The classic block right-looking factorization: PDGETF2 panels, PDLASWP row
swaps, PDTRSM block-row of U, PDGEMM trailing update — all on the same
virtual-MPI substrate and cost model as CALU, so the two can be compared
message for message.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..distsim.engine import ExecutionEngine
from ..layouts.grid import ProcessGrid
from ..machines.model import MachineModel
from .pdgetf2 import make_pdgetf2_panel


def pdgetrf(
    A: np.ndarray,
    grid: ProcessGrid,
    block_size: int,
    machine: Optional[MachineModel] = None,
    engine: Union[None, str, ExecutionEngine] = None,
    matmul: Optional[str] = None,
):
    """Distributed LU with partial pivoting of ``A`` (ScaLAPACK-style baseline).

    Parameters
    ----------
    A:
        Global ``m x n`` matrix (``m >= n``).
    grid:
        Process grid ``Pr x Pc``.
    block_size:
        Block size ``b`` of the 2-D block-cyclic distribution.
    machine:
        Machine model pricing the run.
    engine:
        Virtual-MPI execution engine ("coroutine", "event", an engine
        instance, or ``None`` for the process-wide default).
    matmul:
        Distributed-matmul backend for the trailing update ("summa",
        "caps", or ``None`` for the process-wide default).

    Returns
    -------
    repro.parallel.driver.DistributedLUResult
        Factors, pivot sequence and the per-rank communication trace.
    """
    # Imported lazily to avoid a circular import (the shared driver uses the
    # low-level ScaLAPACK building blocks of this package).
    from ..parallel.driver import run_block_lu

    return run_block_lu(
        A,
        grid,
        block_size,
        panel_factory=make_pdgetf2_panel,
        machine=machine,
        engine=engine,
        matmul=matmul,
    )
