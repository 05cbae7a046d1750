"""Pluggable distributed matmul: SUMMA (classical) vs CAPS (Strassen).

The Schur-complement update of CALU/PDGETRF — and the general distributed
product ``C += A @ B`` — is served by a registry-addressed backend, making
the multiply algorithm a first-class knob exactly like ``pivoting=``
(:mod:`repro.core.strategies`):

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
``"summa"`` (the two-level rule of :mod:`repro.core.options`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.options import Option, UnknownOptionError, register_option
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


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise UnknownOptionError("matmul backend", name, available_backends())
    return name


#: The matmul knob, registered into the shared configuration subsystem
#: (:mod:`repro.core.options`), whose precedence rule :func:`resolve_matmul`
#: applies (explicit > "summa").
OPTION = register_option(
    Option(
        name="matmul",
        kind="matmul backend",
        default=DEFAULT_BACKEND,
        validate=_validate,
    )
)


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(BACKENDS)


def get_backend(name: str) -> MatmulBackend:
    """Look up one backend object by name."""
    return BACKENDS[_validate(name)]


def resolve_matmul(name: Optional[str] = None) -> str:
    """Resolve a per-call ``matmul=`` argument to a validated backend name."""
    return OPTION.resolve(name)


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
    backend = get_backend(resolve_matmul(matmul))
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
    "available_backends",
    "caps_count_ledger",
    "get_backend",
    "pdgemm",
    "resolve_matmul",
    "strassen_multiply",
]
