"""One-call stability reports: everything a row of Table 1 / Table 2 needs.

Given a matrix family and a pivoting strategy (CALU with a given (P, b) or
GEPP), :func:`stability_row` factors the matrix, solves a random system, and
returns the growth factor, threshold statistics, componentwise backward error
and the three HPL residuals — i.e. one row of the paper's stability tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.calu import CALUResult, calu
from ..core.solve import componentwise_backward_error, lu_solve
from ..kernels.getrf import getrf_partial_pivoting
from .growth import trefethen_schreiber_growth
from .residuals import HPLResiduals, hpl_residuals
from .threshold import ThresholdStats, threshold_stats


@dataclass
class StabilityRow:
    """One row of a stability table.

    Attributes mirror the columns of the paper's Table 1: problem size,
    pivoting parameters, growth factor ``g_T``, average/minimum thresholds,
    componentwise backward error ``w_b`` (before refinement) and the three
    HPL residuals.
    """

    n: int
    P: int
    b: int
    method: str
    growth: float
    tau_ave: float
    tau_min: float
    wb: float
    residuals: HPLResiduals

    def as_dict(self) -> dict:
        """Flat dictionary used by the experiment harness and benchmarks."""
        out = {
            "n": self.n,
            "P": self.P,
            "b": self.b,
            "method": self.method,
            "gT": self.growth,
            "tau_ave": self.tau_ave,
            "tau_min": self.tau_min,
            "wb": self.wb,
        }
        out.update(self.residuals.as_dict())
        return out


def recorded_calu(
    A: np.ndarray,
    P: int,
    b: int,
    schedule: str = "binary",
    pivoting: Optional[str] = None,
) -> Tuple[CALUResult, float, ThresholdStats]:
    """CALU(P, b) of ``A`` with growth and thresholds recorded: ``(result, g_T, stats)``."""
    res = calu(A, block_size=b, nblocks=P, schedule=schedule, track_growth=True,
               compute_thresholds=True, pivoting=pivoting)
    return res, trefethen_schreiber_growth(A, res.growth_history), threshold_stats(
        res.threshold_history)


def stability_row_calu(
    A: np.ndarray,
    P: int,
    b: int,
    rhs: Optional[np.ndarray] = None,
    schedule: str = "binary",
    pivoting: Optional[str] = None,
) -> StabilityRow:
    """Factor ``A`` with CALU(P, b), solve a system, and report the stability row.

    ``pivoting`` selects the panel pivoting strategy (``"ca"`` default,
    ``"ca_prrp"`` for the strong-RRQR tournament of Khabou et al., ``"pp"``
    for partial-pivoting panels — see :mod:`repro.core.strategies`).  The
    default rows are bit-identical to the seed Table 1 rows; non-default
    strategies are reported under ``method="calu[<strategy>]"``.  For
    ``"ca_prrp"`` the recorded growth is the block-form quantity of the PRRP
    analysis (the growth its ``(1+2b)^(n/b)`` bound speaks about).
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    rhs = A @ np.ones(n) if rhs is None else np.asarray(rhs, dtype=np.float64)
    res, growth, stats = recorded_calu(A, P, b, schedule=schedule, pivoting=pivoting)
    x = lu_solve(res.packed, res.packed, res.perm, rhs)
    return StabilityRow(
        n=n,
        P=P,
        b=b,
        method="calu" if res.pivoting == "ca" else f"calu[{res.pivoting}]",
        growth=growth,
        tau_ave=stats.average,
        tau_min=stats.minimum,
        wb=componentwise_backward_error(A, x, rhs),
        residuals=hpl_residuals(A, x, rhs),
    )


def stability_row_gepp(A: np.ndarray, rhs: Optional[np.ndarray] = None) -> StabilityRow:
    """Same report for Gaussian elimination with partial pivoting (Table 2)."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    rhs = A @ np.ones(n) if rhs is None else np.asarray(rhs, dtype=np.float64)
    res = getrf_partial_pivoting(A, track_growth=True)
    x = lu_solve(res.L, res.U, res.perm, rhs)
    return StabilityRow(
        n=n,
        P=1,
        b=n,
        method="gepp",
        growth=trefethen_schreiber_growth(A, res.growth_history),
        tau_ave=1.0,
        tau_min=1.0,
        wb=componentwise_backward_error(A, x, rhs),
        residuals=hpl_residuals(A, x, rhs),
    )
