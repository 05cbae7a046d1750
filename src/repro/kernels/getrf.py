"""Blocked LU factorization with partial pivoting (LAPACK ``DGETRF`` analogue).

This sequential blocked right-looking factorization serves three purposes:

* it is the sequential reference against which CALU's factors are validated,
* it is the GEPP baseline of the stability study (Table 2, Figure 2): the
  pivot sequence it produces is exactly the partial-pivoting sequence, so its
  growth factor and residuals are the "partial pivoting" rows of the paper,
* its structure (panel / LASWP / TRSM / GEMM) mirrors the parallel drivers,
  which makes the correspondence between sequential and simulated-parallel
  code easy to audit.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .flops import FlopCounter
from .gemm import gemm_update
from .getf2 import getf2, split_lu
from .laswp import laswp
from .pivoting import ipiv_to_perm
from .rgetf2 import rgetf2
from .trsm import trsm_lower_unit


class BlockedLUResult(NamedTuple):
    """Factors of a blocked LU with partial pivoting.

    Attributes
    ----------
    L:
        ``m x k`` unit-lower-trapezoidal factor (``k = min(m, n)``).
    U:
        ``k x n`` upper-trapezoidal factor.
    perm:
        Row permutation such that ``A[perm, :] = L @ U``.
    ipiv:
        LAPACK-style swap vector (global row indices relative to each step).
    growth_history:
        Max |entry| of the working matrix after each panel elimination
        (only populated when ``track_growth=True``).
    """

    L: np.ndarray
    U: np.ndarray
    perm: np.ndarray
    ipiv: np.ndarray
    growth_history: list


def getrf_blocked(
    A: np.ndarray,
    block_size: int = 64,
    flops: Optional[FlopCounter] = None,
    panel_kernel: str = "getf2",
    track_growth: bool = False,
) -> BlockedLUResult:
    """Blocked right-looking LU with partial pivoting.

    Parameters
    ----------
    A:
        ``m x n`` matrix (``m >= n`` or square; wide inputs are supported by
        factoring the first ``m`` columns and solving for the rest).
    block_size:
        Panel width ``b``.
    flops:
        Optional flop counter.
    panel_kernel:
        ``"getf2"`` (classic unblocked) or ``"rgetf2"`` (recursive) for the
        panel factorization — the same choice the paper exposes for TSLU.
    track_growth:
        Record the max absolute entry of the working matrix after each panel
        step (used by the growth-factor experiments).  Runs the panels on
        the kernels' reference loops: the recorded values depend on the
        factor bits.

    Returns
    -------
    BlockedLUResult
    """
    A = np.array(A, dtype=np.float64)
    m, n = A.shape
    k = min(m, n)
    b = max(1, int(block_size))
    ipiv = np.arange(k, dtype=np.int64)
    growth: list = []
    panel_fn = {"getf2": getf2, "rgetf2": rgetf2}[panel_kernel]

    for j in range(0, k, b):
        jb = min(b, k - j)
        # Factor the current panel A[j:, j:j+jb].
        panel = A[j:, j : j + jb]
        res = panel_fn(panel, flops=flops, reference=track_growth)
        A[j:, j : j + jb] = res.lu
        ipiv[j : j + jb] = res.ipiv + j

        # Apply the panel's row swaps to the columns outside the panel.
        if j > 0:
            laswp(A[:, :j], res.ipiv, offset=j)
        if j + jb < n:
            laswp(A[:, j + jb :], res.ipiv, offset=j)

            # Compute the block-row of U: U12 = L11^{-1} A12.
            L11 = A[j : j + jb, j : j + jb]
            A[j : j + jb, j + jb :] = trsm_lower_unit(
                L11, A[j : j + jb, j + jb :], flops=flops
            )

            # Trailing update A22 -= L21 @ U12.
            if j + jb < m:
                gemm_update(
                    A[j + jb :, j + jb :],
                    A[j + jb :, j : j + jb],
                    A[j : j + jb, j + jb :],
                    flops=flops,
                )
        if track_growth:
            growth.append(float(np.max(np.abs(A))))

    L, U = split_lu(A, m, n)
    perm = ipiv_to_perm(ipiv, m)
    return BlockedLUResult(L=L, U=U, perm=perm, ipiv=ipiv, growth_history=growth)


def getrf_partial_pivoting(
    A: np.ndarray,
    flops: Optional[FlopCounter] = None,
    track_growth: bool = False,
) -> BlockedLUResult:
    """Gaussian elimination with partial pivoting (GEPP) reference.

    Unblocked elimination of the whole matrix; identical pivot sequence to
    LAPACK's ``getrf``.  Provided as the stability baseline of the paper's
    Table 2 ("LU with partial pivoting").  ``track_growth`` runs
    :func:`~repro.kernels.getf2.getf2`'s reference loop.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape
    history: list = [] if track_growth else None  # type: ignore[assignment]
    res = getf2(A, flops=flops, track_growth=history)
    L, U = split_lu(res.lu, m, n)
    return BlockedLUResult(
        L=L,
        U=U,
        perm=res.perm,
        ipiv=res.ipiv,
        growth_history=history if history is not None else [],
    )
