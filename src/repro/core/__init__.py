"""The paper's primary contribution: ca-pivoting, TSLU and CALU.

Sequential-semantics implementations live here (identical numerics to the
distributed versions); the SPMD versions that additionally model the
communication are in :mod:`repro.parallel`.
"""

from .calu import CALUResult, calu, factorization_error, reconstruct
from .solve import (
    SolveResult,
    calu_solve,
    componentwise_backward_error,
    lu_solve,
    solve_with_refinement,
)
from .strategies import (
    DEFAULT_STRATEGY,
    PivotingStrategy,
    available_strategies,
    get_strategy,
)
from .tournament import (
    CandidateSet,
    TournamentResult,
    local_candidates,
    local_candidates_rrqr,
    merge_candidates,
    merge_candidates_rrqr,
    partition_rows,
    tournament_pivoting,
)
from .tslu import TSLUResult, tslu, tslu_partial_pivoting_reference

__all__ = [
    "available_strategies",
    "get_strategy",
    "PivotingStrategy",
    "DEFAULT_STRATEGY",
    "local_candidates_rrqr",
    "merge_candidates_rrqr",
    "calu",
    "CALUResult",
    "reconstruct",
    "factorization_error",
    "tslu",
    "TSLUResult",
    "tslu_partial_pivoting_reference",
    "tournament_pivoting",
    "TournamentResult",
    "CandidateSet",
    "local_candidates",
    "merge_candidates",
    "partition_rows",
    "lu_solve",
    "solve_with_refinement",
    "calu_solve",
    "componentwise_backward_error",
    "SolveResult",
]
