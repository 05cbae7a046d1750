"""Cacheable distributed factorizations: the ``FactoredMatrix`` artifact.

The paper's economics (Section 1) say the ``O(n^3)`` factorization dominates
and communication dominates inside it — which is exactly why a production
solver pays it *once* and amortizes it over many ``O(n^2)`` triangular
solves.  :func:`pcalu_factor` runs the distributed factorization (any
pivoting strategy; ``pivoting="pp"`` is PDGETRF) and packages everything the
solve phase needs into a :class:`FactoredMatrix`:

* the packed factors ``tril(L, -1) + U`` (the storage convention of
  :mod:`repro.scalapack.pdtrsv`),
* the permuted matrix ``P A`` (what iterative refinement computes residuals
  against),
* the pivot sequence ``perm``,
* the layout/grid/strategy metadata (``n``, block size, grid shape,
  pivoting, matmul backend) that determines the artifact's identity.

The two matrices stay in the factorization's 2-D block-cyclic layout, one
read-only piece per rank, so every solve reads them where they are: the
packed factors are the ranks' final local arrays themselves, and ``P A``'s
pieces are read from ``A``'s rows through ``perm`` without forming the
global ``P A``.  :func:`repro.parallel.psolve.pdgesv_solve` consumes a
``FactoredMatrix`` and is bit-identical to the solve phase of a cold
:func:`repro.parallel.psolve.pdgesv`; the content-addressed
:class:`repro.harness.factor_cache.FactorCache` persists these artifacts
(the one place the global matrices are formed) so the factorization is
skipped entirely on a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.options import SolveConfig
from ..layouts.block_cyclic import BlockCyclic2D
from ..layouts.grid import ProcessGrid
from .driver import DistributedLUResult
from .pcalu import pcalu


@dataclass
class FactoredMatrix:
    """Everything the solve phase needs from a distributed factorization.

    Attributes
    ----------
    n:
        Matrix dimension (the factors are ``n x n``).
    block_size:
        Block size ``b`` of the 2-D block-cyclic distribution.
    nprow, npcol:
        Process-grid shape the factorization ran on (the solve phase reuses
        the same grid so the factor blocks are already in place).
    pivoting, matmul:
        The resolved strategy and matmul backend that produced the
        factors — part of the artifact's identity in the factor cache (two
        factorizations differing in any of these are distinct artifacts).
    lu:
        Packed factors ``tril(L, -1) + U`` (unit diagonal of ``L``
        implicit), one read-only piece per rank in the layout :attr:`dist`.
    pa:
        The permuted matrix ``P A`` in the same layout; iterative refinement
        computes residuals ``P b - (P A) x`` against it.
    perm:
        Row permutation with ``A[perm, :] = L @ U``.
    key:
        Content address when the artifact came from (or was stored into) a
        :class:`~repro.harness.factor_cache.FactorCache`, else ``None``.
    source:
        The full :class:`~repro.parallel.driver.DistributedLUResult` when
        this factorization was computed in-process (its ``trace`` prices the
        factor phase, and its ``pieces`` are ``lu``); ``None`` when loaded
        from the cache — the whole point being that no factorization ran.
    """

    n: int
    block_size: int
    nprow: int
    npcol: int
    pivoting: str
    lu: Dict[int, np.ndarray]
    pa: Dict[int, np.ndarray]
    perm: np.ndarray
    matmul: str = "summa"
    key: Optional[str] = None
    source: Optional[DistributedLUResult] = None

    def __post_init__(self) -> None:
        # One factor serves every solve: a stray in-place write must raise.
        for piece in (*self.lu.values(), *self.pa.values()):
            piece.flags.writeable = False

    @property
    def grid(self) -> ProcessGrid:
        return ProcessGrid(self.nprow, self.npcol)

    @property
    def dist(self) -> BlockCyclic2D:
        """The block-cyclic layout of :attr:`lu` and :attr:`pa`."""
        return BlockCyclic2D(self.n, self.n, self.block_size, self.grid)


def pcalu_factor(A: np.ndarray, config: SolveConfig) -> FactoredMatrix:
    """Factor ``A`` as configured by ``config`` and package the result for reuse.

    Runs :func:`repro.parallel.pcalu.pcalu` under ``config`` and keeps its
    pieces as the factor; ``P A``'s pieces are built once on the host, with
    no message charged (as for ``P b`` in the solve).  The returned
    :class:`FactoredMatrix` feeds any number of
    :func:`repro.parallel.psolve.pdgesv_solve` calls, each bit-identical to
    the solve phase of a cold :func:`repro.parallel.psolve.pdgesv`.  The
    artifact records the config's knobs as resolved.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("pcalu_factor expects a square matrix")
    fact = pcalu(A, config)  # rejects complex or non-finite A before any cast
    # The artifact's packed factors are ``tril(L, -1) + U``; on the factored
    # pieces that sum only turns -0.0 into +0.0, which adding 0.0 in place
    # does without two unpacked triangles and their re-packed copy.
    for piece in fact.pieces.values():
        piece += 0.0
    dist = fact.dist
    pa = {}
    for rank in range(dist.grid.size):
        pr, pc = dist.grid.coords(rank)
        rows = fact.perm[dist.local_rows(pr)]
        pa[rank] = np.ascontiguousarray(A[np.ix_(rows, dist.local_cols(pc))], dtype=np.float64)
    return FactoredMatrix(
        n=A.shape[0],
        block_size=config.b,
        nprow=config.nprow,
        npcol=config.npcol,
        pivoting=config.pivoting,
        lu=fact.pieces,
        pa=pa,
        perm=np.asarray(fact.perm, dtype=np.int64),
        matmul=config.matmul,
        source=fact,
    )
