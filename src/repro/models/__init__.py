"""The paper's analytic performance models (Equations 1-3) and comparisons."""

from .calu_model import calu_cost, calu_flops
from .compare import (
    FactorizationComparison,
    MatmulValidation,
    PanelComparison,
    SolveValidation,
    best_vs_best,
    compare_factorization,
    compare_panel,
    recursive_speedup,
    validate_matmul,
    validate_solve,
)
from .matmul_model import (
    caps_message_counts,
    classical_lower_bound_words,
    strassen_lower_bound_words,
    summa_message_counts,
)
from .pdgetrf_model import pdgetrf_cost
from .solve_model import pdtrsv_cost, residual_cost, solve_cost, solve_message_counts
from .tslu_model import pdgetf2_cost, tslu_cost

__all__ = [
    "tslu_cost",
    "pdgetf2_cost",
    "calu_cost",
    "calu_flops",
    "pdgetrf_cost",
    "pdtrsv_cost",
    "residual_cost",
    "solve_cost",
    "solve_message_counts",
    "validate_solve",
    "SolveValidation",
    "validate_matmul",
    "MatmulValidation",
    "summa_message_counts",
    "caps_message_counts",
    "strassen_lower_bound_words",
    "classical_lower_bound_words",
    "compare_panel",
    "compare_factorization",
    "best_vs_best",
    "recursive_speedup",
    "PanelComparison",
    "FactorizationComparison",
]
