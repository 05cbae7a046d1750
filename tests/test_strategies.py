"""Tests for the pluggable pivoting-strategy layer (pp / ca / ca_prrp).

Covers the strategy registry and its knob (``pivoting=`` argument,
``SolveConfig.pivoting``), the strong rank-revealing QR
kernel behind CALU_PRRP, the three strategies through ``tslu``/``calu``, and
the paper-grid acceptance comparison: at (n=1024, P=32, b=32) every strategy
factors to ``max|A[perm] - L U| < 1e-12`` and CALU_PRRP's growth factor does
not exceed CALU's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import calu, tslu
from repro.core.calu import factorization_error
from repro.core.strategies import (
    DEFAULT_STRATEGY,
    available_strategies,
    get_strategy,
)
from repro.core.options import SolveConfig
from repro.kernels.getf2 import getf2
from repro.kernels.rrqr import DEFAULT_TAU, rrqr, select_rows_rrqr
from repro.randmat import randn, tall_skinny
from repro.stability.growth import trefethen_schreiber_growth
from repro.stability.report import stability_row_calu


# ------------------------------------------------------------------ registry
def test_registry_lists_all_three_strategies():
    assert available_strategies() == ["ca", "ca_prrp", "pp"]
    assert DEFAULT_STRATEGY == "ca" and get_strategy() is get_strategy("ca")
    assert get_strategy("ca").tournament and get_strategy("ca").selector == "getf2"
    assert get_strategy("ca_prrp").selector == "rrqr"
    assert not get_strategy("pp").tournament


# The precedence rule (explicit > default) is covered for every knob at once
# by the parametrized suite in tests/test_options.py.
def test_unknown_strategy_rejected_everywhere():
    with pytest.raises(
        ValueError,
        match=r"^unknown pivoting strategy 'rook'; available: \['ca', 'ca_prrp', 'pp'\]$",
    ):
        get_strategy("rook")
    with pytest.raises(ValueError, match="unknown pivoting strategy"):
        SolveConfig.resolve(pivoting="rook")
    with pytest.raises(ValueError, match="unknown pivoting strategy"):
        calu(randn(16, seed=0), block_size=4, nblocks=2, pivoting="rook")


def test_explicit_pivoting_drives_calu():
    A = randn(48, seed=9)
    assert calu(A, block_size=8, nblocks=2).pivoting == DEFAULT_STRATEGY
    res = calu(A, block_size=8, nblocks=2, pivoting="ca_prrp")
    assert res.pivoting == "ca_prrp"
    assert factorization_error(A, res) < 1e-12


# ------------------------------------------------------------------ rrqr kernel
def test_rrqr_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(0)
    for m, n in [(8, 16), (6, 6), (3, 10)]:
        A = rng.standard_normal((m, n))
        res = rrqr(A)
        assert np.allclose(A[:, res.perm], res.Q @ res.R, atol=1e-12)
        assert np.allclose(res.Q.T @ res.Q, np.eye(res.k), atol=1e-12)
        assert np.array_equal(np.sort(res.perm), np.arange(n))


def test_rrqr_interaction_within_threshold():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((8, 32))
    res = rrqr(A, tau=DEFAULT_TAU)
    assert res.interaction is not None
    assert np.max(np.abs(res.interaction)) <= DEFAULT_TAU


def test_rrqr_rejects_sub_one_tau():
    with pytest.raises(ValueError, match="tau"):
        rrqr(np.eye(3), tau=0.5)


def test_select_rows_rrqr_returns_distinct_rows():
    block = randn(40, seed=3)[:, :8]
    sel = select_rows_rrqr(block, 8)
    assert sel.shape == (8,)
    assert len(set(sel.tolist())) == 8
    # Short block: selects everything there is.
    assert select_rows_rrqr(block[:3], 8).shape == (3,)


# ------------------------------------------------------- tslu per strategy
@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
def test_tslu_factors_panel_for_every_strategy(strategy):
    A = tall_skinny(64, 8, seed=11)
    res = tslu(A, nblocks=4, pivoting=strategy)
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-12)
    assert np.array_equal(np.sort(res.perm), np.arange(64))
    assert np.array_equal(res.winners, res.perm[:8])


def test_tslu_pp_matches_partial_pivoting_reference():
    from repro.core.tslu import tslu_partial_pivoting_reference

    A = tall_skinny(48, 6, seed=12)
    res = tslu(A, nblocks=4, pivoting="pp")
    assert np.array_equal(res.winners, tslu_partial_pivoting_reference(A))


def test_tslu_default_is_bit_identical_to_ca():
    A = tall_skinny(64, 8, seed=13)
    base = tslu(A, nblocks=4)
    explicit = tslu(A, nblocks=4, pivoting="ca")
    assert np.array_equal(base.perm, explicit.perm)
    assert np.array_equal(base.L, explicit.L)
    assert np.array_equal(base.U, explicit.U)


def test_tslu_prrp_thresholds_recorded():
    A = tall_skinny(64, 8, seed=14)
    res = tslu(A, nblocks=4, pivoting="ca_prrp", compute_thresholds=True)
    assert res.threshold_history.shape == (8,)
    assert np.all(res.threshold_history > 0.0)
    assert np.all(res.threshold_history <= 1.0)


# ------------------------------------------------------- calu per strategy
@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
@pytest.mark.parametrize("n,b,P", [(64, 8, 4), (50, 8, 4), (22, 8, 2)])
def test_calu_factors_for_every_strategy_and_ragged_sizes(strategy, n, b, P):
    A = randn(n, seed=n + b)
    res = calu(A, block_size=b, nblocks=P, pivoting=strategy)
    assert factorization_error(A, res) < 1e-12
    assert res.pivoting == strategy


@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
def test_calu_tall_matrix_per_strategy(strategy):
    A = randn(60, seed=5)[:, :40]
    res = calu(A, block_size=8, nblocks=4, pivoting=strategy)
    assert np.max(np.abs(A[res.perm, :] - res.L @ res.U)) < 1e-12


def test_calu_pp_pivot_sequence_matches_gepp():
    """Partial-pivoting panels reproduce the classic GEPP pivot sequence."""
    A = randn(48, seed=6)
    res = calu(A, block_size=8, nblocks=4, pivoting="pp")
    ref = getf2(A)
    assert np.array_equal(res.perm, ref.perm)


def test_stability_row_labels_non_default_strategy():
    A = randn(64, seed=7)
    row_ca = stability_row_calu(A, P=2, b=8)
    row_prrp = stability_row_calu(A, P=2, b=8, pivoting="ca_prrp")
    assert row_ca.method == "calu"
    assert row_prrp.method == "calu[ca_prrp]"
    assert row_prrp.growth > 0.0
    assert 0.0 < row_prrp.tau_min <= 1.0


# ------------------------------------------------ acceptance: the paper grid
def test_acceptance_paper_grid_all_strategies_factor_and_prrp_growth_wins():
    """At (n=1024, P=32, b=32): every strategy factors to < 1e-12 and the
    CALU_PRRP (block-form) growth factor does not exceed CALU's."""
    n, P, b = 1024, 32, 32
    A = randn(n, seed=n)
    growth = {}
    for strategy in available_strategies():
        res = calu(A, block_size=b, nblocks=P, pivoting=strategy, track_growth=True)
        err = np.max(np.abs(A[res.perm, :] - res.L @ res.U))
        assert err < 1e-12, (strategy, err)
        growth[strategy] = trefethen_schreiber_growth(A, res.growth_history)
    assert growth["ca_prrp"] <= growth["ca"], growth
    # Growth factors stay in the empirical ~1.5 n^(2/3) regime for all three.
    for strategy, g in growth.items():
        assert g < 3.0 * float(n) ** (2.0 / 3.0), (strategy, g)


def test_prrp_growth_beats_ca_across_seeds():
    """The block-form PRRP growth advantage is not a one-seed accident."""
    n, P, b = 256, 8, 16
    wins = 0
    trials = 4
    for s in range(trials):
        A = randn(n, seed=1000 * s + n)
        g = {}
        for strategy in ("ca", "ca_prrp"):
            res = calu(A, block_size=b, nblocks=P, pivoting=strategy,
                       track_growth=True)
            g[strategy] = trefethen_schreiber_growth(A, res.growth_history)
        wins += g["ca_prrp"] <= g["ca"]
    assert wins >= trials - 1


def test_rrqr_partial_k_selected_columns_exact():
    """With k < min(m, n) the selected columns still factor exactly; the
    trailing columns are only projections (documented partial semantics)."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 8))
    res = rrqr(A, k=3)
    assert res.k == 3
    assert np.allclose(A[:, res.perm[:3]], res.Q @ res.R[:, :3], atol=1e-12)


def test_calu_pp_flop_ledger_matches_blocked_gepp():
    """The pp strategy must not double-charge the panel work: its ledger
    equals the blocked-GEPP reference (panel getf2 + trsm + gemm), with the
    multipliers reused rather than re-solved."""
    from repro.kernels import FlopCounter
    from repro.kernels.getrf import getrf_blocked

    A = randn(96, seed=16)
    res = calu(A, block_size=16, nblocks=4, pivoting="pp", track_growth=True)
    ref = FlopCounter()
    getrf_blocked(A, block_size=16, flops=ref, track_growth=True)
    assert res.flops.muladds == ref.muladds
    assert res.flops.divides == ref.divides
