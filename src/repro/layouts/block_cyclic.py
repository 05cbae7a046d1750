"""Two-dimensional block-cyclic matrix distribution (ScaLAPACK layout).

An ``m x n`` matrix is tiled in ``b x b`` blocks; block ``(I, J)`` is owned by
the process at grid position ``(I mod Pr, J mod Pc)``.  This is the layout
used by ScaLAPACK's PDGETRF, by HPL, and by CALU (Section 4 of the paper).

:class:`BlockCyclic2D` provides the rows and columns each grid row and column
holds, global-to-local index maps, and scatter/gather helpers that convert
between a global numpy array and the per-process local arrays.  The
distributed drivers in :mod:`repro.parallel` and :mod:`repro.scalapack` store
their data exclusively in the local arrays and use these maps — the global
matrix only appears when scattering inputs and gathering results for
verification, exactly as a real MPI code would do through file I/O or
redistribution routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .grid import ProcessGrid


@dataclass(frozen=True)
class BlockCyclic2D:
    """2-D block-cyclic distribution of an ``m x n`` matrix with ``b x b`` blocks.

    Attributes
    ----------
    m, n:
        Global matrix dimensions.
    block:
        Square block size ``b``.
    grid:
        The :class:`~repro.layouts.grid.ProcessGrid` the matrix is mapped to.
    """

    m: int
    n: int
    block: int
    grid: ProcessGrid

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0 or self.block < 1:
            raise ValueError("invalid BlockCyclic2D parameters")

    # ------------------------------------------------------------ index maps
    def local_rows(self, grid_row: int) -> np.ndarray:
        """Global row indices stored by processes in grid row ``grid_row``."""
        rows = np.arange(self.m, dtype=np.int64)
        return rows[(rows // self.block) % self.grid.nprow == grid_row]

    def local_cols(self, grid_col: int) -> np.ndarray:
        """Global column indices stored by processes in grid column ``grid_col``."""
        cols = np.arange(self.n, dtype=np.int64)
        return cols[(cols // self.block) % self.grid.npcol == grid_col]

    def global_to_local_row(self, i: int) -> int:
        """Local row index of global row ``i`` on its owning grid row."""
        blk = i // self.block
        return int((blk // self.grid.nprow) * self.block + i % self.block)

    def global_to_local_col(self, j: int) -> int:
        """Local column index of global column ``j`` on its owning grid column."""
        blk = j // self.block
        return int((blk // self.grid.npcol) * self.block + j % self.block)

    def block_local_rows(self, i0: int, ib: int) -> np.ndarray:
        """Local indices of global rows ``i0 .. i0+ib-1``, all of one block row.

        Rows of one block are adjacent on their owning grid row, so this is
        ``global_to_local_row`` of each row in closed form.
        """
        if ib > 0 and i0 // self.block != (i0 + ib - 1) // self.block:
            raise ValueError(f"rows {i0}..{i0 + ib - 1} span more than one block")
        start = self.global_to_local_row(i0)
        return np.arange(start, start + ib, dtype=np.int64)

    def block_local_cols(self, j0: int, jb: int) -> np.ndarray:
        """Local indices of global columns ``j0 .. j0+jb-1``, all of one block column."""
        if jb > 0 and j0 // self.block != (j0 + jb - 1) // self.block:
            raise ValueError(f"columns {j0}..{j0 + jb - 1} span more than one block")
        start = self.global_to_local_col(j0)
        return np.arange(start, start + jb, dtype=np.int64)

    # -------------------------------------------------------- scatter/gather
    def scatter(self, A: np.ndarray) -> Dict[int, np.ndarray]:
        """Split a global matrix into the per-rank local arrays.

        Returns a dict mapping linear rank to its local 2-D array (a copy).
        """
        A = np.asarray(A)
        if A.shape != (self.m, self.n):
            raise ValueError(f"expected a {self.m} x {self.n} matrix, got {A.shape}")
        locals_: Dict[int, np.ndarray] = {}
        for rank in range(self.grid.size):
            pr, pc = self.grid.coords(rank)
            rows = self.local_rows(pr)
            cols = self.local_cols(pc)
            locals_[rank] = np.ascontiguousarray(A[np.ix_(rows, cols)])
        return locals_

    def gather(self, locals_: Dict[int, np.ndarray], dtype=np.float64) -> np.ndarray:
        """Reassemble the global matrix from per-rank local arrays."""
        A = np.zeros((self.m, self.n), dtype=dtype)
        for rank in range(self.grid.size):
            pr, pc = self.grid.coords(rank)
            rows = self.local_rows(pr)
            cols = self.local_cols(pc)
            local = locals_[rank]
            if local.shape != (rows.shape[0], cols.shape[0]):
                raise ValueError(
                    f"rank {rank} local array has shape {local.shape}, "
                    f"expected {(rows.shape[0], cols.shape[0])}"
                )
            A[np.ix_(rows, cols)] = local
        return A

    # -------------------------------------------------------------- utilities
    def num_block_rows(self) -> int:
        """Number of block rows ``ceil(m / b)``."""
        return -(-self.m // self.block)

    def num_block_cols(self) -> int:
        """Number of block columns ``ceil(n / b)``."""
        return -(-self.n // self.block)
