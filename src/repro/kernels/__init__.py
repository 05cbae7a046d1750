"""Sequential dense linear-algebra kernels with explicit flop accounting.

These are the building blocks every higher-level algorithm in the package is
assembled from: unblocked and recursive panel LU, blocked LU, row swaps,
triangular solves and matrix-multiply updates.  They correspond to the
LAPACK/BLAS routines named in the paper (DGETF2, RGETF2, DGETRF, DLASWP,
DTRSM, DGEMM).
"""

from .batched import BatchedLUResult, getf2_batched, slab_flop_counters
from .flops import FlopCounter, FlopFormulas
from .gemm import gemm, gemm_update
from .getf2 import LUResult, getf2, lu_reconstruct, split_lu
from .getrf import BlockedLUResult, getrf_blocked, getrf_partial_pivoting
from .laswp import apply_row_permutation, laswp, permute_rows_inplace
from .pivoting import compose_perms, invert_perm, ipiv_to_perm, is_permutation
from .rgetf2 import rgetf2
from .rrqr import DEFAULT_TAU, RRQRResult, rrqr, select_rows_rrqr
from .trsm import trsm_lower_unit, trsm_right_upper, trsm_upper

__all__ = [
    "rrqr",
    "select_rows_rrqr",
    "RRQRResult",
    "DEFAULT_TAU",
    "FlopCounter",
    "FlopFormulas",
    "LUResult",
    "BatchedLUResult",
    "BlockedLUResult",
    "getf2_batched",
    "slab_flop_counters",
    "permute_rows_inplace",
    "getf2",
    "rgetf2",
    "getrf_blocked",
    "getrf_partial_pivoting",
    "split_lu",
    "lu_reconstruct",
    "laswp",
    "apply_row_permutation",
    "gemm",
    "gemm_update",
    "trsm_lower_unit",
    "trsm_upper",
    "trsm_right_upper",
    "ipiv_to_perm",
    "invert_perm",
    "compose_perms",
    "is_permutation",
]
