"""Pluggable distributed matmul: SUMMA (classical) vs CAPS (Strassen).

The Schur-complement update of CALU/PDGETRF — and the general distributed
product ``C += A @ B`` — is served by a backend picked by name from one table,
:data:`BACKENDS`, with one lookup, :func:`get_backend` — the same shape as the
``pivoting=`` knob (:mod:`repro.core.strategies`):

``"summa"`` (the default)
    The classical broadcast-then-local-GEMM algorithm — bit-identical
    traces and results to the seed driver.  Bandwidth ``Θ(n²/√P)``.

``"caps"``
    Communication-optimal parallel Strassen (Ballard-Demmel-Holtz-Schwartz,
    arXiv:1202.3173): BFS/DFS traversal over rank groups, bandwidth
    ``Θ(n²/P^{2/ω})`` with ``ω = log2 7`` — asymptotically below every
    classical algorithm.  Inside the LU driver it keeps the seed broadcast
    skeleton and swaps in a Strassen local product; the full recursion runs
    in the standalone :func:`pdgemm`.

Selected per call (the ``SolveConfig.matmul`` of ``pcalu``, ``pcalu_factor``
and ``pdgesv``; ``matmul=`` on :func:`pdgemm`); an unset value means
``"summa"``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.options import UnknownOptionError
from .base import MatmulBackend, PdgemmResult
from .caps import CapsBackend, caps_count_ledger, strassen_multiply
from .summa import SummaBackend

#: Registered backends (singletons — backends are stateless).
BACKENDS: Dict[str, MatmulBackend] = {
    "summa": SummaBackend(),
    "caps": CapsBackend(),
}

#: Backend used when no per-call value is given — the seed-identical
#: algorithm.
DEFAULT_BACKEND = "summa"


def get_backend(name: Optional[str] = None) -> MatmulBackend:
    """Look up one backend object by name (``None``: :data:`DEFAULT_BACKEND`)."""
    if name is None:
        name = DEFAULT_BACKEND
    if name not in BACKENDS:
        raise UnknownOptionError("matmul backend", name, sorted(BACKENDS))
    return BACKENDS[name]


def pdgemm(
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    grid=None,
    block_size: int = 16,
    matmul: Optional[str] = None,
    machine=None,
) -> PdgemmResult:
    """Distributed ``C += A @ B`` through the selected backend.

    Dispatches on the ``matmul`` knob (``None``: ``"summa"``) and returns a
    :class:`~repro.matmul.base.PdgemmResult` with the gathered product and
    the run trace.
    """
    backend = get_backend(matmul)
    return backend.pdgemm(
        A, B, C=C, grid=grid, block_size=block_size, machine=machine
    )


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "MatmulBackend",
    "PdgemmResult",
    "SummaBackend",
    "CapsBackend",
    "caps_count_ledger",
    "get_backend",
    "pdgemm",
    "strassen_multiply",
]
