"""One-dimensional row distributions for tall-skinny panels.

TSLU (Section 3 of the paper) views the panel as an ``m x b`` matrix whose
rows are spread over ``P`` processes in a 1-D layout.  Two layouts are
supported:

* :class:`Block1D` — contiguous blocks of ``ceil(m / P)`` rows per process,
  the layout used in the paper's description of the preprocessing step;
* :class:`BlockCyclic1D` — block-cyclic rows with block size ``b`` (the layout
  of the panel inside a 2-D block-cyclic matrix, and the one used by the
  worked example of Figure 1 where rows 1, 2, 9, 10 live on process 0).

Both expose the same interface: which global rows a process owns, in
ascending order, so a row's local index is its position in that list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Block1D:
    """Contiguous block distribution of ``m`` rows over ``nprocs`` processes.

    Process ``i`` owns rows ``i*base .. (i+1)*base - 1`` where ``base`` is
    ``ceil(m / nprocs)`` for the first processes and the remainder goes to the
    last; when ``nprocs`` divides ``m`` every process owns exactly
    ``m / nprocs`` rows, matching the paper's simplifying assumption.
    """

    m: int
    nprocs: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.nprocs < 1:
            raise ValueError("invalid Block1D parameters")

    def rows_of(self, p: int) -> np.ndarray:
        """Global row indices owned by process ``p`` (sorted ascending)."""
        self._check_proc(p)
        base = -(-self.m // self.nprocs)
        lo = min(p * base, self.m)
        hi = min((p + 1) * base, self.m)
        return np.arange(lo, hi, dtype=np.int64)

    def _check_proc(self, p: int) -> None:
        if not (0 <= p < self.nprocs):
            raise ValueError(f"process {p} outside 0..{self.nprocs - 1}")


@dataclass(frozen=True)
class BlockCyclic1D:
    """Block-cyclic distribution of ``m`` rows with block size ``block``.

    Row block ``k`` (rows ``k*block .. (k+1)*block - 1``) is owned by process
    ``k mod nprocs``.  This is the row distribution induced on a single
    block-column of a 2-D block-cyclic matrix, and the distribution of the
    worked example in Figure 1 of the paper.
    """

    m: int
    block: int
    nprocs: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.block < 1 or self.nprocs < 1:
            raise ValueError("invalid BlockCyclic1D parameters")

    def rows_of(self, p: int) -> np.ndarray:
        """Global row indices owned by process ``p`` (sorted ascending)."""
        self._check_proc(p)
        rows = np.arange(self.m, dtype=np.int64)
        return rows[(rows // self.block) % self.nprocs == p]

    def _check_proc(self, p: int) -> None:
        if not (0 <= p < self.nprocs):
            raise ValueError(f"process {p} outside 0..{self.nprocs - 1}")
