"""repro — reproduction of "Communication Avoiding Gaussian Elimination".

The package reimplements CALU (communication-avoiding LU with ca-pivoting /
tournament pivoting), its panel factorization TSLU, the ScaLAPACK-style
baselines it is compared against, the paper's analytic performance models,
and the stability and performance experiments of its evaluation section.

Quick start::

    import numpy as np
    from repro import calu, calu_solve

    A = np.random.default_rng(0).standard_normal((512, 512))
    result = calu(A, block_size=32, nblocks=4)
    assert np.allclose(A[result.perm, :], result.L @ result.U, atol=1e-8)

Subpackages
-----------
``repro.core``
    ca-pivoting, TSLU, CALU and a linear solver (the paper's contribution).
``repro.parallel``
    SPMD versions of TSLU and CALU running on the virtual-MPI simulator.
``repro.scalapack``
    Simulated ScaLAPACK baselines (PDGETF2, PDGETRF, PDLASWP, PDTRSM, PDGEMM).
``repro.kernels``
    Sequential dense kernels (DGETF2, recursive RGETF2, blocked DGETRF, ...).
``repro.distsim`` / ``repro.machines`` / ``repro.costs``
    Virtual MPI runtime, machine models (α, β, γ), cost ledgers.
``repro.models``
    The paper's analytic runtime formulas (Equations 1-3) and comparisons.
``repro.stability``
    Growth factors, pivot thresholds, HPL residual tests.
``repro.experiments``
    One module per table/figure of the paper's evaluation.
"""

from .core import (
    CALUResult,
    SolveResult,
    TSLUResult,
    calu,
    calu_solve,
    factorization_error,
    lu_solve,
    reconstruct,
    solve_with_refinement,
    tournament_pivoting,
    tslu,
)
from .kernels import FlopCounter, getf2, getrf_blocked, getrf_partial_pivoting, rgetf2
from .layouts import Block1D, BlockCyclic1D, BlockCyclic2D, ProcessGrid
from .machines import MachineModel, cray_xt4, ibm_power5, unit_machine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "calu",
    "CALUResult",
    "tslu",
    "TSLUResult",
    "tournament_pivoting",
    "calu_solve",
    "lu_solve",
    "solve_with_refinement",
    "SolveResult",
    "reconstruct",
    "factorization_error",
    "FlopCounter",
    "getf2",
    "rgetf2",
    "getrf_blocked",
    "getrf_partial_pivoting",
    "ProcessGrid",
    "Block1D",
    "BlockCyclic1D",
    "BlockCyclic2D",
    "MachineModel",
    "ibm_power5",
    "cray_xt4",
    "unit_machine",
]
