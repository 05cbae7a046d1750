"""Stability metrics: growth factors, pivot thresholds, HPL residual tests."""

from .growth import (
    expected_partial_pivoting_growth,
    trefethen_schreiber_growth,
    wilkinson_growth,
)
from .report import StabilityRow, stability_row_calu, stability_row_gepp
from .residuals import HPL_PASS_THRESHOLD, HPLResiduals, hpl_residuals
from .threshold import ThresholdStats, threshold_stats

__all__ = [
    "trefethen_schreiber_growth",
    "wilkinson_growth",
    "expected_partial_pivoting_growth",
    "threshold_stats",
    "ThresholdStats",
    "hpl_residuals",
    "HPLResiduals",
    "HPL_PASS_THRESHOLD",
    "StabilityRow",
    "stability_row_calu",
    "stability_row_gepp",
]
