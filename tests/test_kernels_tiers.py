"""Property tests for the kernel tiers and the batched tournament.

The contract under test:

* the batched kernel (:func:`repro.kernels.getf2_batched`) is **bit-identical**
  per slab to the reference ``getf2`` loop — factors, pivots, permutations,
  singularity flags and flop counts;
* the LAPACK tier picks **identical pivots** (and therefore permutations and
  tournament winners) and charges **exactly** the reference flop counts; its
  factor entries agree to rounding (LAPACK scales by a reciprocal and vendor
  BLAS uses FMA, so factor bits legitimately differ — every call site where
  bits matter pins the reference tier instead);
* the strong-RRQR selection (:func:`repro.kernels.select_rows_rrqr`) returns
  the **same rows in the same order** and charges the **same ledger** on both
  tiers; the LAPACK tier verifies ``max |R11^{-1} R12| <= tau`` on its own
  factor and hands everything doubtful to the reference kernel;
* the batched tournament (``kernel_tier="auto"``) returns bit-identical
  winners, permutations and ``U`` factors to the sequential reference
  schedule, across non-power-of-two ``P``, panel sizes that do not divide
  ``m``, and singular blocks;
* stability recording (growth, thresholds) forces the reference tier, so the
  recorded histories are unchanged by the knob.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import calu, tslu, tournament_pivoting, partition_rows
from repro.kernels import (
    DEFAULT_TAU,
    FlopCounter,
    getf2,
    getf2_batched,
    getrf_partial_pivoting,
    permute_rows_inplace,
    rgetf2,
    resolve_tier,
    rrqr,
    select_rows_rrqr,
    slab_flop_counters,
)
from repro.kernels.tiers import HAVE_LAPACK
from repro.parallel import ptslu
from repro.randmat import randn, tall_skinny

pytestmark = pytest.mark.skipif(not HAVE_LAPACK, reason="scipy LAPACK unavailable")


def _counts(f: FlopCounter):
    return (f.muladds, f.divides, f.comparisons)


# ------------------------------------------------------------ tier selection
def test_tier_resolution_and_overrides():
    # The generic precedence levels (explicit/default) are covered for every
    # knob by tests/test_options.py; this covers what is specific to the
    # tier knob: the "auto" degradation and force_reference.
    assert resolve_tier(None) == "lapack"  # auto default with scipy present
    assert resolve_tier("auto") == "lapack"
    assert resolve_tier("reference") == "reference"
    assert resolve_tier("lapack") == "lapack"
    assert resolve_tier(None, force_reference=True) == "reference"
    assert resolve_tier("lapack", force_reference=True) == "reference"
    with pytest.raises(ValueError):
        resolve_tier("nope")


# ------------------------------------------------------------- LAPACK tier
@pytest.mark.parametrize("m,n", [(1, 1), (8, 4), (33, 17), (64, 32), (40, 7), (7, 9), (12, 12)])
def test_lapack_tier_identical_pivots_and_exact_flops(m, n):
    A = randn(m, n, seed=m * 31 + n)
    fr, fl = FlopCounter(), FlopCounter()
    ref = getf2(A, flops=fr, kernel_tier="reference")
    fast = getf2(A, flops=fl, kernel_tier="lapack")
    assert np.array_equal(ref.ipiv, fast.ipiv)
    assert np.array_equal(ref.perm, fast.perm)
    assert ref.singular == fast.singular
    assert _counts(fr) == _counts(fl)
    assert np.allclose(ref.lu, fast.lu, atol=1e-11)


@pytest.mark.parametrize("zero_cols", [(0,), (2,), (0, 3), (2, 4)])
def test_lapack_tier_singular_columns_exact_flops(zero_cols):
    A = randn(12, 6, seed=5)
    for c in zero_cols:
        A[:, c] = 0.0
    fr, fl = FlopCounter(), FlopCounter()
    ref = getf2(A, flops=fr, kernel_tier="reference")
    fast = getf2(A, flops=fl, kernel_tier="lapack")
    assert ref.singular and fast.singular
    assert np.array_equal(ref.ipiv, fast.ipiv)
    assert np.array_equal(ref.perm, fast.perm)
    assert _counts(fr) == _counts(fl)


def test_lapack_tier_overwrite_contract():
    A = randn(8, 8, seed=1)
    res = getf2(A, overwrite=True, kernel_tier="lapack")
    assert res.lu is A


def test_rgetf2_lapack_tier_matches_reference():
    A = randn(48, 24, seed=9)
    fr, fl = FlopCounter(), FlopCounter()
    ref = rgetf2(A, flops=fr, kernel_tier="reference")
    fast = rgetf2(A, flops=fl, kernel_tier="lapack")
    assert np.array_equal(ref.perm, fast.perm)
    assert _counts(fr) == _counts(fl)
    assert np.allclose(ref.lu, fast.lu, atol=1e-10)


# ------------------------------------------------------------- batched kernel
@pytest.mark.parametrize("nb,m,n", [(1, 4, 4), (8, 16, 8), (5, 7, 7), (3, 4, 8), (6, 64, 32), (4, 2, 2)])
def test_batched_getf2_bit_identical_to_reference(nb, m, n):
    rng = np.random.default_rng(nb * 100 + m + n)
    stack = rng.standard_normal((nb, m, n))
    stack[0, :, min(n - 1, 2)] = 0.0  # an exactly singular slab
    if m > 3:
        stack[-1, 3] = stack[-1, 0]  # a duplicated-row slab
    fb = FlopCounter()
    res = getf2_batched(stack, flops=fb)
    fs = FlopCounter()
    per_slab = slab_flop_counters(m, n, res.zero_columns)
    for i in range(nb):
        fi = FlopCounter()
        ref = getf2(stack[i], flops=fi, kernel_tier="reference")
        assert np.array_equal(res.lu[i], ref.lu)  # bitwise, not allclose
        assert np.array_equal(res.ipiv[i], ref.ipiv)
        assert np.array_equal(res.perm[i], ref.perm)
        assert bool(res.singular[i]) == ref.singular
        assert _counts(per_slab[i]) == _counts(fi)
        fs.merge(fi)
    assert _counts(fb) == _counts(fs)


@settings(max_examples=25, deadline=None)
@given(
    nb=st.integers(1, 6),
    m=st.integers(1, 12),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
def test_batched_getf2_bit_identical_property(nb, m, n, seed):
    stack = np.random.default_rng(seed).standard_normal((nb, m, n))
    res = getf2_batched(stack)
    for i in range(nb):
        ref = getf2(stack[i], kernel_tier="reference")
        assert np.array_equal(res.lu[i], ref.lu)
        assert np.array_equal(res.perm[i], ref.perm)


# ------------------------------------------------------ strong-RRQR selection
# ``repro.kernels.rrqr`` the attribute is the function; this is the module.
rrqr_module = importlib.import_module("repro.kernels.rrqr")


def _kahan(n, theta=1.2):
    """Kahan's matrix: column pivoting leaves it alone, yet the last column
    depends strongly on the first n-1 — the classic input on which QRCP
    violates the strong-RRQR bound and a strengthening swap is needed."""
    s, c = np.sin(theta), np.cos(theta)
    K = (s ** np.arange(n))[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    # Slightly graded columns: QRCP's (identity) pivots win by a clear margin.
    return K * (1.0 - 1e-6) ** np.arange(n)


def _rrqr_cases():
    rng = np.random.default_rng(42)
    leaf = rng.standard_normal((128, 64))
    halves = [
        blk[select_rows_rrqr(blk, 64, kernel_tier="reference")]
        for blk in (leaf, rng.standard_normal((128, 64)))
    ]
    dup = rng.standard_normal((24, 8))
    dup[2] *= 3.0  # certainly picked, so its copies tie for a pivot
    dup[5] = dup[2]
    dup[17] = dup[2]
    low_rank = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 8))
    graded = 10.0 ** -np.linspace(0, 12, 24)[:, None] * rng.standard_normal((24, 16))
    # (id, block, nselect, selection comes from the fast tier itself)
    return [
        ("leaf_128x64", leaf, 64, True),
        ("leaf_70x16", rng.standard_normal((70, 16)), 16, True),
        ("merge_2b_x_b", np.vstack(halves), 64, True),
        ("merge_of_a_set_with_itself", np.vstack([halves[0], halves[0]]), 64, False),
        ("rows_lt_b", rng.standard_normal((10, 16)), 16, True),
        ("k_lt_min_m_n", rng.standard_normal((70, 16)), 4, True),
        ("nselect_gt_width", rng.standard_normal((10, 4)), 8, True),
        ("one_row", rng.standard_normal((1, 8)), 8, True),
        ("zero_rows", np.zeros((0, 8)), 8, True),
        ("duplicate_rows", dup, 8, False),
        ("rank_5_of_8", low_rank, 8, False),
        ("all_zero", np.zeros((16, 8)), 8, False),
        ("graded_within_the_rank_guard", graded, 6, True),
        ("graded", graded, 16, False),
        ("kahan", _kahan(24).T, 23, False),
    ]


_RRQR_CASES = _rrqr_cases()


@pytest.mark.parametrize(
    "block,nselect,fast", [c[1:] for c in _RRQR_CASES], ids=[c[0] for c in _RRQR_CASES]
)
def test_rrqr_selection_and_ledger_agree_across_tiers(monkeypatch, block, nselect, fast):
    fr, fl = FlopCounter(), FlopCounter()
    ref = select_rows_rrqr(block, nselect, flops=fr, kernel_tier="reference")
    got = select_rows_rrqr(block, nselect, flops=fl, kernel_tier="lapack")
    assert np.array_equal(ref, got)
    assert got.dtype == np.int64
    assert _counts(fr) == _counts(fl)
    # The public factorization (which accumulates Q) selects and charges alike.
    fq = FlopCounter()
    if block.shape[0]:
        full = rrqr(block.T, k=min(nselect, block.shape[0]), flops=fq)
        assert np.array_equal(full.perm[: ref.size], ref)
        assert _counts(fq) == _counts(fr)

    # Which kernel produced the fast tier's answer is part of the contract:
    # clean blocks never enter the Python loop, doubtful ones always do.
    calls = []
    original = rrqr_module._strong_rrqr
    monkeypatch.setattr(
        rrqr_module, "_strong_rrqr",
        lambda *a, **kw: calls.append(1) or original(*a, **kw),
    )
    select_rows_rrqr(block, nselect, kernel_tier="lapack")
    assert bool(calls) == (not fast and block.shape[0] > 0)


def test_rrqr_kahan_takes_a_strengthening_swap_on_both_tiers(monkeypatch):
    """Clear pivots, violated bound: it is the threshold check on LAPACK's own
    factor that sends Kahan's matrix to the reference swap loop."""
    K = _kahan(24)
    res = rrqr(K, k=23)
    assert res.swaps == 1
    assert np.max(np.abs(res.interaction)) <= DEFAULT_TAU

    real = rrqr_module.lapack_module()
    checked = []

    class _Spy:
        dgeqp3 = staticmethod(real.dgeqp3)

        @staticmethod
        def dtrtrs(*args, **kwargs):
            out = real.dtrtrs(*args, **kwargs)
            checked.append(float(np.max(np.abs(out[0]))))
            return out

    monkeypatch.setattr(rrqr_module, "lapack_module", lambda: _Spy)
    assert np.array_equal(select_rows_rrqr(K.T, 23, kernel_tier="lapack"), res.perm[:23])
    assert len(checked) == 1 and checked[0] > DEFAULT_TAU


def test_rrqr_lapack_tier_falls_back_on_a_bad_permutation(monkeypatch):
    """A ``dgeqp3`` that returns a valid QR in a *bad* column order (the weak
    rows first, a threshold-violating selection) must not be believed: the
    reference kernel runs and the selection keeps ``max |L21| <= tau``."""
    rng = np.random.default_rng(7)
    block = rng.standard_normal((32, 8))
    block[:8] *= 1e-3  # rows 0..7 are the worst possible selection
    weak = np.linalg.solve(block[:8].T, block[8:].T)
    assert np.max(np.abs(weak)) > DEFAULT_TAU
    real = rrqr_module.lapack_module()

    class _NoPivoting:
        calls = 0
        dtrtrs = staticmethod(real.dtrtrs)

        @classmethod
        def dgeqp3(cls, a):
            cls.calls += 1
            r = np.linalg.qr(a, mode="r")
            return r, np.arange(1, a.shape[1] + 1, dtype=np.int32), None, None, 0

    monkeypatch.setattr(rrqr_module, "lapack_module", lambda: _NoPivoting)
    fr, fl = FlopCounter(), FlopCounter()
    ref = select_rows_rrqr(block, 8, flops=fr, kernel_tier="reference")
    got = select_rows_rrqr(block, 8, flops=fl, kernel_tier="lapack")
    assert _NoPivoting.calls == 1
    assert np.array_equal(got, ref)
    assert _counts(fr) == _counts(fl)
    rest = np.setdiff1d(np.arange(32), got)
    L21 = np.linalg.solve(block[got].T, block[rest].T).T
    assert np.max(np.abs(L21)) <= DEFAULT_TAU


def test_rrqr_lapack_tier_rejects_failed_factorization(monkeypatch):
    block = randn(16, 4, seed=3)
    real = rrqr_module.lapack_module()

    class _Failing:
        @staticmethod
        def dgeqp3(a):
            return real.dgeqp3(a)[:4] + (-1,)

    def reference_ran(*args, **kwargs):
        raise AssertionError("reference ran")

    monkeypatch.setattr(rrqr_module, "lapack_module", lambda: _Failing)
    monkeypatch.setattr(rrqr_module, "_strong_rrqr", reference_ran)
    with pytest.raises(AssertionError, match="reference ran"):
        select_rows_rrqr(block, 4, kernel_tier="lapack")


@pytest.mark.parametrize("tier", ["reference", "lapack"])
def test_rrqr_selection_rejects_sub_one_tau_on_every_tier(tier):
    with pytest.raises(ValueError, match="tau"):
        select_rows_rrqr(randn(8, 4, seed=1), 4, tau=0.5, kernel_tier=tier)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 12),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_rrqr_tiers_agree_property(m, n, k, seed):
    block = np.random.default_rng(seed).standard_normal((m, n))
    fr, fl = FlopCounter(), FlopCounter()
    ref = select_rows_rrqr(block, k, flops=fr, kernel_tier="reference")
    got = select_rows_rrqr(block, k, flops=fl, kernel_tier="lapack")
    assert np.array_equal(ref, got)
    assert _counts(fr) == _counts(fl)


@pytest.mark.parametrize("schedule", ["binary", "butterfly", "flat"])
@pytest.mark.parametrize("P,b", [(1, 4), (3, 4), (5, 2), (8, 8)])
def test_rrqr_tournament_auto_bit_identical_to_reference(schedule, P, b):
    m = P * b * 2 + 3
    A = randn(m, b, seed=P * 1000 + b)
    A[m // 2] = 0.0
    blocks = [(g, A[g, :]) for g in partition_rows(m, P)]
    fa, fr = FlopCounter(), FlopCounter()
    auto = tournament_pivoting(
        blocks, b, flops=fa, schedule=schedule, kernel_tier="auto", selector="rrqr"
    )
    ref = tournament_pivoting(
        blocks, b, flops=fr, schedule=schedule, kernel_tier="reference", selector="rrqr"
    )
    assert np.array_equal(auto.winners, ref.winners)
    assert np.array_equal(auto.U, ref.U)
    assert auto.rounds == ref.rounds
    assert _counts(fa) == _counts(fr)


# --------------------------------------------------------- batched tournament
@pytest.mark.parametrize("schedule", ["binary", "butterfly", "flat"])
@pytest.mark.parametrize("P,b", [(1, 4), (2, 3), (3, 4), (5, 2), (8, 8), (13, 3)])
def test_tournament_auto_bit_identical_to_reference(schedule, P, b):
    m = P * b * 2 + 3  # m not a multiple of P*b
    A = randn(m, b, seed=P * 1000 + b)
    A[m // 2] = 0.0  # a singular (zero) row in some block
    blocks = [(g, A[g, :]) for g in partition_rows(m, P)]
    fa, fr = FlopCounter(), FlopCounter()
    auto = tournament_pivoting(blocks, b, flops=fa, schedule=schedule, kernel_tier="auto")
    ref = tournament_pivoting(blocks, b, flops=fr, schedule=schedule, kernel_tier="reference")
    assert np.array_equal(auto.winners, ref.winners)
    assert np.array_equal(auto.U, ref.U)  # bitwise
    assert auto.rounds == ref.rounds
    assert _counts(fa) == _counts(fr)


def test_tournament_all_zero_panel_auto_matches_reference():
    A = np.zeros((16, 2))
    A[3] = [1.0, 2.0]
    A[11] = [3.0, -1.0]
    blocks = [(g, A[g, :]) for g in partition_rows(16, 4)]
    auto = tournament_pivoting(blocks, 2, kernel_tier="auto")
    ref = tournament_pivoting(blocks, 2, kernel_tier="reference")
    assert np.array_equal(auto.winners, ref.winners)
    assert np.array_equal(auto.U, ref.U)


@pytest.mark.parametrize("m,b,P", [(30, 5, 4), (67, 5, 6), (64, 8, 8)])
def test_tslu_auto_bit_identical(m, b, P):
    A = tall_skinny(m, b, seed=m + b + P)
    auto = tslu(A, nblocks=P, kernel_tier="auto")
    ref = tslu(A, nblocks=P, kernel_tier="reference")
    assert np.array_equal(auto.perm, ref.perm)
    assert np.array_equal(auto.winners, ref.winners)
    assert np.array_equal(auto.L, ref.L)
    assert np.array_equal(auto.U, ref.U)


@pytest.mark.parametrize("n,b,P", [(48, 8, 4), (50, 7, 3), (64, 16, 8)])
def test_calu_auto_bit_identical(n, b, P, monkeypatch):
    A = randn(n, seed=n + b)

    def factor(tier, pivoting):
        return calu(A, block_size=b, nblocks=P, kernel_tier=tier, pivoting=pivoting)

    def same_bits(got, want):
        return (
            np.array_equal(got.perm, want.perm)
            and np.array_equal(got.L, want.L)
            and np.array_equal(got.U, want.U)
            and _counts(got.flops) == _counts(want.flops)
        )

    for tier in ("auto", "lapack"):
        assert same_bits(factor(tier, "ca"), factor("reference", "ca")), tier
        # CALU_PRRP finishes with a tiered GEPP of each diagonal block, so its
        # factors agree across tiers to rounding only (as ``getf2``'s do) ...
        got, ref = factor(tier, "ca_prrp"), factor("reference", "ca_prrp")
        assert np.array_equal(got.perm, ref.perm), tier
        assert _counts(got.flops) == _counts(ref.flops), tier
        assert np.allclose(got.L, ref.L, atol=1e-12) and np.allclose(got.U, ref.U, atol=1e-11)
        # ... but the *selection* kernel's tier changes no bit of them.
        with monkeypatch.context() as patch:
            patch.setattr(rrqr_module, "resolve_tier", lambda *a, **kw: "reference")
            assert same_bits(factor(tier, "ca_prrp"), got), tier


def test_ptslu_auto_bit_identical_and_same_trace():
    A = tall_skinny(67, 5, seed=11)  # m not a multiple of P*b
    for pivoting in ("ca", "ca_prrp"):
        auto = ptslu(A, nprocs=6, kernel_tier="auto", pivoting=pivoting)
        ref = ptslu(A, nprocs=6, kernel_tier="reference", pivoting=pivoting)
        assert np.array_equal(auto.winners, ref.winners), pivoting
        assert np.array_equal(auto.perm, ref.perm), pivoting
        assert np.array_equal(auto.L, ref.L), pivoting
        assert np.array_equal(auto.U, ref.U), pivoting
        assert auto.trace.summary() == ref.trace.summary(), pivoting
        for got, want in zip(auto.trace.ranks, ref.trace.ranks):
            assert got == want, pivoting


# ------------------------------------------------- stability forces reference
def test_growth_recording_is_tier_independent():
    A = randn(48, seed=21)
    auto = calu(A, block_size=8, nblocks=4, track_growth=True,
                compute_thresholds=True, kernel_tier="auto")
    ref = calu(A, block_size=8, nblocks=4, track_growth=True,
               compute_thresholds=True, kernel_tier="reference")
    assert auto.growth_history == ref.growth_history
    assert np.array_equal(auto.threshold_history, ref.threshold_history)


def test_getf2_incremental_growth_matches_full_matrix_scan():
    """The incremental frozen-max + trailing-scan recording must reproduce the
    full |A| scan exactly, including skipped singular columns."""
    for seed, singular_col in [(3, None), (4, 2), (5, 0)]:
        A = randn(14, 9, seed=seed)
        if singular_col is not None:
            A[:, singular_col] = 0.0
        history: list = []
        getf2(A, track_growth=history)
        # Naive reference: replay the elimination, scanning all of |A|.
        B = np.array(A)
        m, n = B.shape
        expected = []
        for j in range(min(m, n)):
            p = int(np.argmax(np.abs(B[j:, j]))) + j
            if B[p, j] == 0.0:
                continue
            if p != j:
                B[[j, p], :] = B[[p, j], :]
            if j < m - 1:
                B[j + 1 :, j] /= B[j, j]
                if j < n - 1:
                    B[j + 1 :, j + 1 :] -= np.outer(B[j + 1 :, j], B[j, j + 1 :])
            expected.append(float(np.max(np.abs(B))))
        assert history == expected


def test_gepp_growth_unchanged_under_auto_tier():
    A = randn(32, seed=8)
    g_auto = getrf_partial_pivoting(A, track_growth=True, kernel_tier="auto")
    g_ref = getrf_partial_pivoting(A, track_growth=True, kernel_tier="reference")
    assert g_auto.growth_history == g_ref.growth_history
    assert np.array_equal(g_auto.U, g_ref.U)


# --------------------------------------------------------------- permutation
def test_permute_rows_inplace_matches_gather():
    rng = np.random.default_rng(0)
    for m in [1, 2, 7, 32]:
        A = rng.standard_normal((m, 5))
        perm = rng.permutation(m)
        expected = A[perm, :]
        permute_rows_inplace(A, perm)
        assert np.array_equal(A, expected)
    v = np.arange(10)
    perm = np.random.default_rng(1).permutation(10)
    expected = v[perm]
    permute_rows_inplace(v, perm)
    assert np.array_equal(v, expected)
