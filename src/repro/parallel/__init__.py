"""Distributed (SPMD) versions of TSLU and CALU running on the virtual MPI."""

from .driver import DistributedLUResult, block_right_looking_rank, run_block_lu
from .factor import FactoredMatrix, pcalu_factor
from .pcalu import make_calu_panel, pcalu
from .psolve import DistributedSolveResult, pdgesv, pdgesv_rank, pdgesv_solve
from .ptslu import PTSLUResult, pp_panel_rank, ptslu, ptslu_rank

__all__ = [
    "ptslu",
    "ptslu_rank",
    "pp_panel_rank",
    "PTSLUResult",
    "pcalu",
    "make_calu_panel",
    "pdgesv",
    "pdgesv_rank",
    "pdgesv_solve",
    "FactoredMatrix",
    "pcalu_factor",
    "DistributedSolveResult",
    "run_block_lu",
    "block_right_looking_rank",
    "DistributedLUResult",
]
