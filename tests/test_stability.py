"""Tests for the stability metrics (growth, thresholds, HPL residuals)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import calu
from repro.kernels import getrf_partial_pivoting
from repro.randmat import linear_system, randn
from repro.stability import (
    HPL_PASS_THRESHOLD,
    expected_partial_pivoting_growth,
    hpl_residuals,
    stability_row_calu,
    stability_row_gepp,
    threshold_stats,
    trefethen_schreiber_growth,
    wilkinson_growth,
)


# ---------------------------------------------------------------------- growth
def test_growth_factor_identity_is_one_over_sigma():
    A = np.eye(8)
    g = trefethen_schreiber_growth(A, [1.0], sigma=1.0)
    assert g == pytest.approx(1.0)


def test_growth_factor_uses_history_peak():
    A = np.ones((4, 4))
    assert trefethen_schreiber_growth(A, [3.0, 7.0, 2.0], sigma=1.0) == pytest.approx(7.0)


def test_wilkinson_growth_no_growth_is_one():
    A = randn(16, seed=1)
    assert wilkinson_growth(A, []) == pytest.approx(1.0)


def test_calu_growth_comparable_to_gepp():
    """ca-pivoting grows like partial pivoting (Figure 2 left)."""
    n = 256
    A = randn(n, seed=2)
    calu_row = stability_row_calu(A, P=4, b=32)
    gepp_row = stability_row_gepp(A)
    assert calu_row.growth < 8.0 * gepp_row.growth
    # Both stay within a small multiple of the n^(2/3) trend.
    trend = expected_partial_pivoting_growth(n)
    assert calu_row.growth < 10.0 * trend


# ------------------------------------------------------------------ thresholds
def test_threshold_stats_basic():
    stats = threshold_stats(np.array([1.0, 0.5, 0.8]))
    assert stats.minimum == pytest.approx(0.5)
    assert stats.average == pytest.approx((1.0 + 0.5 + 0.8) / 3)
    assert stats.l_bound == pytest.approx(2.0)
    assert stats.count == 3


def test_threshold_stats_empty():
    stats = threshold_stats(np.array([]))
    assert stats.minimum == 1.0 and stats.count == 0


def test_calu_thresholds_match_paper_bounds():
    """τ_min comfortably above zero, τ_ave high — the Table 1 observation.

    The paper reports τ_min >= 0.33 and τ_ave >= 0.84 over its (much larger)
    sample; at these small sizes we check the same qualitative bounds with a
    margin."""
    A = randn(256, seed=3)
    row = stability_row_calu(A, P=8, b=32)
    assert row.tau_min > 0.15
    assert row.tau_ave > 0.7


def test_gepp_l_norm_is_one_calu_bounded():
    A = randn(128, seed=4)
    gepp = getrf_partial_pivoting(A)
    assert np.max(np.abs(gepp.L)) <= 1.0 + 1e-12
    c = calu(A, block_size=16, nblocks=4, compute_thresholds=True)
    assert np.max(np.abs(c.L)) <= 1.0 / c.threshold_history.min() + 1e-6


# ------------------------------------------------------------------- residuals
def test_hpl_residuals_pass_for_good_solution():
    A, b, x = linear_system(64, seed=5)
    x_computed = np.linalg.solve(A, b)
    r = hpl_residuals(A, x_computed, b)
    assert r.passed
    assert max(r.hpl1, r.hpl2, r.hpl3) < HPL_PASS_THRESHOLD


def test_hpl_residuals_fail_for_garbage_solution():
    A, b, _ = linear_system(64, seed=6)
    r = hpl_residuals(A, np.zeros(64), b)
    assert not r.passed


def test_hpl_residuals_as_dict_keys():
    A, b, _ = linear_system(16, seed=7)
    r = hpl_residuals(A, np.linalg.solve(A, b), b)
    assert set(r.as_dict()) == {"HPL1", "HPL2", "HPL3"}


# -------------------------------------------------------------- full table rows
@pytest.mark.parametrize("P,b", [(4, 16), (8, 16), (4, 32)])
def test_stability_row_calu_passes_hpl(P, b):
    A = randn(128, seed=P * b)
    row = stability_row_calu(A, P=P, b=b)
    assert row.residuals.passed
    assert row.wb < 1e-12
    assert row.method == "calu"


def test_stability_row_gepp_passes_hpl():
    A = randn(128, seed=9)
    row = stability_row_gepp(A)
    assert row.residuals.passed
    assert row.tau_min == 1.0


def test_calu_and_gepp_same_order_of_magnitude_backward_error():
    """The paper's conclusion: CALU is as stable as GEPP in practice."""
    A = randn(256, seed=10)
    c = stability_row_calu(A, P=8, b=32)
    g = stability_row_gepp(A)
    assert c.wb < 100 * g.wb + 1e-15
