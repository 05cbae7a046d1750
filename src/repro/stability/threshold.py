"""Pivot-threshold statistics (Figure 2 right; the τ columns of Table 1).

ca-pivoting does not guarantee that the pivot is the largest entry of its
column, so ``|L|`` is not bounded by 1 as with partial pivoting.  The paper
measures, at every elimination step ``i``, the *threshold*

    τ_i = |pivot_i| / max_j |A^(i)[j, i]|   (j over the active rows)

and reports its minimum and average: τ_min ≥ 0.33 and τ_ave ≥ 0.84 in all
their experiments, i.e. ca-pivoting behaves like threshold pivoting with
``|L| ≤ 1/τ_min ≈ 3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ThresholdStats:
    """Summary of the per-step pivot thresholds of one factorization."""

    minimum: float
    average: float
    count: int


def threshold_stats(threshold_history: np.ndarray) -> ThresholdStats:
    """Summarise a threshold history produced by CALU/TSLU."""
    t = np.asarray(threshold_history, dtype=np.float64)
    t = t[np.isfinite(t)]
    if t.size == 0:
        return ThresholdStats(minimum=1.0, average=1.0, count=0)
    return ThresholdStats(minimum=float(t.min()), average=float(t.mean()), count=int(t.size))
