"""Two-dimensional process grids.

ScaLAPACK and CALU both distribute an ``m x n`` matrix block-cyclically over a
``Pr x Pc`` grid of processes.  :class:`ProcessGrid` maps between the linear
rank used by the message-passing layer and the ``(row, col)`` coordinates used
by the algorithms, and enumerates the ranks sharing a grid row or column
(the communicators along which panel factorization and broadcasts happen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class ProcessGrid:
    """A ``Pr x Pc`` logical grid of ``P = Pr * Pc`` processes.

    Ranks are laid out column-major (as in ScaLAPACK's default): rank
    ``r`` sits at grid row ``r % Pr`` and grid column ``r // Pr``.

    Attributes
    ----------
    nprow:
        Number of process rows ``Pr``.
    npcol:
        Number of process columns ``Pc``.
    """

    nprow: int
    npcol: int

    def __post_init__(self) -> None:
        if self.nprow < 1 or self.npcol < 1:
            raise ValueError("process grid dimensions must be positive")

    @property
    def size(self) -> int:
        """Total number of processes ``P = Pr * Pc``."""
        return self.nprow * self.npcol

    def coords(self, rank: int) -> Tuple[int, int]:
        """Return the ``(grid_row, grid_col)`` of a linear rank."""
        self._check_rank(rank)
        return rank % self.nprow, rank // self.nprow

    def rank(self, grid_row: int, grid_col: int) -> int:
        """Return the linear rank at ``(grid_row, grid_col)``."""
        if not (0 <= grid_row < self.nprow and 0 <= grid_col < self.npcol):
            raise ValueError(
                f"grid coordinates ({grid_row}, {grid_col}) outside "
                f"{self.nprow} x {self.npcol} grid"
            )
        return grid_col * self.nprow + grid_row

    def column_ranks(self, grid_col: int) -> Sequence[int]:
        """Ranks of all processes in grid column ``grid_col`` (ordered by grid row).

        Returned as a ``range``: grid rows and columns are arithmetic rank
        progressions, and collective groups hash / position-index their
        members per participant — O(1) on a range versus O(group size) on a
        materialized list.
        """
        self.rank(0, grid_col)  # validate the column index
        return range(grid_col * self.nprow, (grid_col + 1) * self.nprow)

    def row_ranks(self, grid_row: int) -> Sequence[int]:
        """Ranks of all processes in grid row ``grid_row`` (ordered by grid column)."""
        self.rank(grid_row, 0)  # validate the row index
        return range(grid_row, self.size, self.nprow)

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} outside grid of size {self.size}")

    @staticmethod
    def default_for(p: int) -> "ProcessGrid":
        """Pick a near-square ``Pr x Pc`` grid for ``p`` processes with ``Pr <= Pc``.

        This reproduces the grid shapes used in the paper's experiments
        (2x2, 2x4, 4x4, 4x8, 8x8 for P = 4, 8, 16, 32, 64).
        """
        if p < 1:
            raise ValueError("need at least one process")
        pr = int(p**0.5)
        while pr > 1 and p % pr != 0:
            pr -= 1
        return ProcessGrid(pr, p // pr)
