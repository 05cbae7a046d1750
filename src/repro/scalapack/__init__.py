"""Simulated ScaLAPACK baselines (PDGETF2, PDLASWP, PDTRSM, PDTRSV, PDGEMM).

These reproduce the communication structure of the routines the paper
compares against, on the same virtual-MPI substrate and cost model as CALU.
PDGETRF itself is the shared block LU driver with the PDGETF2 panel:
``repro.parallel.pcalu(A, config.replace(pivoting="pp"))``.
"""

from .pdgemm import pdgemm_trailing_update
from .pdgetf2 import make_pdgetf2_panel
from .pdlaswp import apply_swaps_to_permutation, pdlaswp, winners_to_swaps
from .pdtrsm import pdtrsm_block_row
from .pdtrsv import pdtrsv_lower_unit, pdtrsv_upper

__all__ = [
    "make_pdgetf2_panel",
    "pdlaswp",
    "winners_to_swaps",
    "apply_swaps_to_permutation",
    "pdtrsm_block_row",
    "pdtrsv_lower_unit",
    "pdtrsv_upper",
    "pdgemm_trailing_update",
]
