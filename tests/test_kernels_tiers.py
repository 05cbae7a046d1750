"""Property tests for the kernels' two code paths and the batched tournament.

Where a kernel has two bodies — the reference Python loop and a LAPACK
call — the code picks one per call site (``reference=True`` only where the
factor bits are contractual); nothing configures it.  The contract under
test:

* the batched kernel (:func:`repro.kernels.getf2_batched`) is **bit-identical**
  per slab to the reference ``getf2`` loop — factors, pivots, permutations,
  singularity flags and flop counts;
* the default ``dgetrf`` path picks **identical pivots** (and therefore
  permutations and tournament winners) and charges **exactly** the reference
  flop counts; its factor entries agree to rounding (LAPACK scales by a
  reciprocal and vendor BLAS uses FMA, so factor bits legitimately differ —
  every call site where bits matter passes ``reference=True`` instead);
* the strong-RRQR selection (:func:`repro.kernels.select_rows_rrqr`) returns
  the **same rows in the same order** and charges the **same ledger** as the
  reference ``_strong_rrqr`` loop; its ``dgeqp3`` path verifies
  ``max |R11^{-1} R12| <= tau`` on its own factor and hands everything
  doubtful to the reference kernel;
* the batched tournament returns bit-identical winners, permutations and
  ``U`` factors to the one-merge-at-a-time reference schedule, across
  non-power-of-two ``P``, panel sizes that do not divide ``m``, and singular
  blocks;
* stability recording (growth, thresholds) replays the reference loops, and
  the tournament's kernel paths change no recorded value.

The reference helpers (``reference_select``, ``reference_leaves``,
``tournament_oracle``) are the fixtures of ``tests/conftest.py``.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from repro.core import calu, tournament, tslu, tournament_pivoting, partition_rows
from repro.kernels import (
    DEFAULT_TAU,
    FlopCounter,
    getf2,
    getf2_batched,
    getrf_partial_pivoting,
    permute_rows_inplace,
    rgetf2,
    rrqr,
    select_rows_rrqr,
    slab_flop_counters,
)
from repro.parallel import ptslu
from repro.randmat import randn, tall_skinny

# ``repro.kernels.rrqr`` the attribute is the function; this is the module.
rrqr_module = importlib.import_module("repro.kernels.rrqr")


def _counts(f: FlopCounter):
    return (f.muladds, f.divides, f.comparisons)


# ------------------------------------------------------------- dgetrf path
@pytest.mark.parametrize("m,n", [(1, 1), (8, 4), (33, 17), (64, 32), (40, 7), (7, 9), (12, 12)])
def test_lapack_tier_identical_pivots_and_exact_flops(m, n):
    A = randn(m, n, seed=m * 31 + n)
    fr, fl = FlopCounter(), FlopCounter()
    ref = getf2(A, flops=fr, reference=True)
    fast = getf2(A, flops=fl)
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
    ref = getf2(A, flops=fr, reference=True)
    fast = getf2(A, flops=fl)
    assert ref.singular and fast.singular
    assert np.array_equal(ref.ipiv, fast.ipiv)
    assert np.array_equal(ref.perm, fast.perm)
    assert _counts(fr) == _counts(fl)


def test_lapack_tier_overwrite_contract():
    A = randn(8, 8, seed=1)
    res = getf2(A, overwrite=True)
    assert res.lu is A


def test_rgetf2_lapack_tier_matches_reference():
    A = randn(48, 24, seed=9)
    fr, fl = FlopCounter(), FlopCounter()
    ref = rgetf2(A, flops=fr, reference=True)
    fast = rgetf2(A, flops=fl)
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
        ref = getf2(stack[i], flops=fi, reference=True)
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
        ref = getf2(stack[i], reference=True)
        assert np.array_equal(res.lu[i], ref.lu)
        assert np.array_equal(res.perm[i], ref.perm)


# ------------------------------------------------------ strong-RRQR selection
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
        blk[select_rows_rrqr(blk, 64)]
        for blk in (leaf, rng.standard_normal((128, 64)))
    ]
    dup = rng.standard_normal((24, 8))
    dup[2] *= 3.0  # certainly picked, so its copies tie for a pivot
    dup[5] = dup[2]
    dup[17] = dup[2]
    low_rank = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 8))
    graded = 10.0 ** -np.linspace(0, 12, 24)[:, None] * rng.standard_normal((24, 16))
    # (id, block, nselect, selection comes from the dgeqp3 path itself)
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
def test_rrqr_selection_and_ledger_agree_across_tiers(
    monkeypatch, reference_select, block, nselect, fast
):
    fr, fl = FlopCounter(), FlopCounter()
    ref = reference_select(block, nselect, flops=fr)
    got = select_rows_rrqr(block, nselect, flops=fl)
    assert np.array_equal(ref, got)
    assert got.dtype == np.int64
    assert _counts(fr) == _counts(fl)
    # The public factorization (which accumulates Q) selects and charges alike.
    fq = FlopCounter()
    if block.shape[0]:
        full = rrqr(block.T, k=min(nselect, block.shape[0]), flops=fq)
        assert np.array_equal(full.perm[: ref.size], ref)
        assert _counts(fq) == _counts(fr)

    # Which kernel produced the selection is part of the contract: clean
    # blocks never enter the Python loop, doubtful ones always do.
    calls = []
    original = rrqr_module._strong_rrqr
    monkeypatch.setattr(
        rrqr_module, "_strong_rrqr",
        lambda *a, **kw: calls.append(1) or original(*a, **kw),
    )
    select_rows_rrqr(block, nselect)
    assert bool(calls) == (not fast and block.shape[0] > 0)


def test_rrqr_kahan_takes_a_strengthening_swap_on_both_tiers(monkeypatch):
    """Clear pivots, violated bound: it is the threshold check on LAPACK's own
    factor that sends Kahan's matrix to the reference swap loop."""
    K = _kahan(24)
    res = rrqr(K, k=23)
    assert res.swaps == 1
    assert np.max(np.abs(res.interaction)) <= DEFAULT_TAU

    checked = []

    class _Spy:
        dgeqp3 = staticmethod(lapack.dgeqp3)

        @staticmethod
        def dtrtrs(*args, **kwargs):
            out = lapack.dtrtrs(*args, **kwargs)
            checked.append(float(np.max(np.abs(out[0]))))
            return out

    monkeypatch.setattr(rrqr_module, "lapack", _Spy)
    assert np.array_equal(select_rows_rrqr(K.T, 23), res.perm[:23])
    assert len(checked) == 1 and checked[0] > DEFAULT_TAU


def test_rrqr_lapack_tier_falls_back_on_a_bad_permutation(monkeypatch, reference_select):
    """A ``dgeqp3`` that returns a valid QR in a *bad* column order (the weak
    rows first, a threshold-violating selection) must not be believed: the
    reference kernel runs and the selection keeps ``max |L21| <= tau``."""
    rng = np.random.default_rng(7)
    block = rng.standard_normal((32, 8))
    block[:8] *= 1e-3  # rows 0..7 are the worst possible selection
    weak = np.linalg.solve(block[:8].T, block[8:].T)
    assert np.max(np.abs(weak)) > DEFAULT_TAU

    class _NoPivoting:
        calls = 0
        dtrtrs = staticmethod(lapack.dtrtrs)

        @classmethod
        def dgeqp3(cls, a):
            cls.calls += 1
            r = np.linalg.qr(a, mode="r")
            return r, np.arange(1, a.shape[1] + 1, dtype=np.int32), None, None, 0

    monkeypatch.setattr(rrqr_module, "lapack", _NoPivoting)
    fr, fl = FlopCounter(), FlopCounter()
    ref = reference_select(block, 8, flops=fr)
    got = select_rows_rrqr(block, 8, flops=fl)
    assert _NoPivoting.calls == 1
    assert np.array_equal(got, ref)
    assert _counts(fr) == _counts(fl)
    rest = np.setdiff1d(np.arange(32), got)
    L21 = np.linalg.solve(block[got].T, block[rest].T).T
    assert np.max(np.abs(L21)) <= DEFAULT_TAU


def test_rrqr_lapack_tier_rejects_failed_factorization(monkeypatch):
    block = randn(16, 4, seed=3)

    class _Failing:
        @staticmethod
        def dgeqp3(a):
            return lapack.dgeqp3(a)[:4] + (-1,)

    def reference_ran(*args, **kwargs):
        raise AssertionError("reference ran")

    monkeypatch.setattr(rrqr_module, "lapack", _Failing)
    monkeypatch.setattr(rrqr_module, "_strong_rrqr", reference_ran)
    with pytest.raises(AssertionError, match="reference ran"):
        select_rows_rrqr(block, 4)


@pytest.mark.parametrize("path", ["reference", "lapack"])
def test_rrqr_selection_rejects_sub_one_tau_on_every_tier(reference_select, path):
    select = reference_select if path == "reference" else select_rows_rrqr
    with pytest.raises(ValueError, match="tau"):
        select(randn(8, 4, seed=1), 4, tau=0.5)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 12),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_rrqr_tiers_agree_property(reference_select, m, n, k, seed):
    block = np.random.default_rng(seed).standard_normal((m, n))
    fr, fl = FlopCounter(), FlopCounter()
    ref = reference_select(block, k, flops=fr)
    got = select_rows_rrqr(block, k, flops=fl)
    assert np.array_equal(ref, got)
    assert _counts(fr) == _counts(fl)


def _assert_matches_oracle(oracle, blocks, b, schedule, selector):
    flops = FlopCounter()
    res = tournament_pivoting(blocks, b, flops=flops, schedule=schedule, selector=selector)
    rows, U, rounds, expected = oracle(blocks, b, schedule, selector, "getf2")
    assert np.array_equal(res.winners, rows)
    assert np.array_equal(res.U, U)  # bitwise
    assert res.rounds == rounds
    assert _counts(flops) == _counts(expected)


@pytest.mark.parametrize("schedule", ["binary", "butterfly", "flat"])
@pytest.mark.parametrize("P,b", [(1, 4), (3, 4), (5, 2), (8, 8)])
def test_rrqr_tournament_auto_bit_identical_to_reference(tournament_oracle, schedule, P, b):
    m = P * b * 2 + 3
    A = randn(m, b, seed=P * 1000 + b)
    A[m // 2] = 0.0
    blocks = [(g, A[g, :]) for g in partition_rows(m, P)]
    _assert_matches_oracle(tournament_oracle, blocks, b, schedule, "rrqr")


# --------------------------------------------------------- batched tournament
@pytest.mark.parametrize("schedule", ["binary", "butterfly", "flat"])
@pytest.mark.parametrize("P,b", [(1, 4), (2, 3), (3, 4), (5, 2), (8, 8), (13, 3)])
def test_tournament_auto_bit_identical_to_reference(tournament_oracle, schedule, P, b):
    m = P * b * 2 + 3  # m not a multiple of P*b
    A = randn(m, b, seed=P * 1000 + b)
    A[m // 2] = 0.0  # a singular (zero) row in some block
    blocks = [(g, A[g, :]) for g in partition_rows(m, P)]
    _assert_matches_oracle(tournament_oracle, blocks, b, schedule, "getf2")


def test_tournament_all_zero_panel_auto_matches_reference(tournament_oracle):
    A = np.zeros((16, 2))
    A[3] = [1.0, 2.0]
    A[11] = [3.0, -1.0]
    blocks = [(g, A[g, :]) for g in partition_rows(16, 4)]
    _assert_matches_oracle(tournament_oracle, blocks, 2, "binary", "getf2")


@pytest.mark.parametrize("m,b,P", [(30, 5, 4), (67, 5, 6), (64, 8, 8)])
def test_tslu_auto_bit_identical(monkeypatch, reference_leaves, m, b, P):
    A = tall_skinny(m, b, seed=m + b + P)
    auto = tslu(A, nblocks=P)
    monkeypatch.setattr(tournament, "leaf_candidates", reference_leaves)
    for ref in (tslu(A, nblocks=P), tslu(A, nblocks=P, reference=True)):
        assert np.array_equal(auto.perm, ref.perm)
        assert np.array_equal(auto.winners, ref.winners)
        assert np.array_equal(auto.L, ref.L)
        assert np.array_equal(auto.U, ref.U)


@pytest.mark.parametrize("n,b,P", [(48, 8, 4), (50, 7, 3), (64, 16, 8)])
def test_calu_auto_bit_identical(n, b, P, reference_leaves):
    A = randn(n, seed=n + b)

    def factor(pivoting, **kwargs):
        return calu(A, block_size=b, nblocks=P, pivoting=pivoting, **kwargs)

    def same_bits(got, want):
        return (
            np.array_equal(got.perm, want.perm)
            and np.array_equal(got.L, want.L)
            and np.array_equal(got.U, want.U)
            and _counts(got.flops) == _counts(want.flops)
        )

    fast_ca, fast_prrp = factor("ca"), factor("ca_prrp")
    # Recording runs the reference loops; on ca panels that changes no bit.
    assert same_bits(fast_ca, factor("ca", track_growth=True))
    # CALU_PRRP finishes with a GEPP of each diagonal block, which recording
    # runs on the reference loop, so its factors agree to rounding only (as
    # ``getf2``'s do) ...
    ref = factor("ca_prrp", track_growth=True)
    assert np.array_equal(fast_prrp.perm, ref.perm)
    assert _counts(fast_prrp.flops) == _counts(ref.flops)
    assert np.allclose(fast_prrp.L, ref.L, atol=1e-12)
    assert np.allclose(fast_prrp.U, ref.U, atol=1e-11)
    # ... but the tournament's kernel paths change no bit of either.
    with mock.patch.object(tournament, "leaf_candidates", reference_leaves), \
            mock.patch.object(rrqr_module, "_lapack_pivots", lambda *a: None):
        assert same_bits(factor("ca"), fast_ca)
        assert same_bits(factor("ca_prrp"), fast_prrp)


def test_ptslu_auto_bit_identical_and_same_trace(monkeypatch, reference_leaves):
    A = tall_skinny(67, 5, seed=11)  # m not a multiple of P*b
    fast = {piv: ptslu(A, nprocs=6, pivoting=piv) for piv in ("ca", "ca_prrp")}
    monkeypatch.setattr(tournament, "leaf_candidates", reference_leaves)
    monkeypatch.setattr(rrqr_module, "_lapack_pivots", lambda *a: None)
    for pivoting, auto in fast.items():
        ref = ptslu(A, nprocs=6, pivoting=pivoting)
        assert np.array_equal(auto.winners, ref.winners), pivoting
        assert np.array_equal(auto.perm, ref.perm), pivoting
        assert np.array_equal(auto.L, ref.L), pivoting
        assert np.array_equal(auto.U, ref.U), pivoting
        assert auto.trace.summary() == ref.trace.summary(), pivoting
        for got, want in zip(auto.trace.ranks, ref.trace.ranks):
            assert got == want, pivoting


# ------------------------------------------------- recording replays the loops
def test_growth_recording_is_tier_independent(monkeypatch, reference_leaves):
    """Recording runs do not need a reference tournament: with every leaf and
    selection forced onto the reference kernels the histories are unchanged."""
    A = randn(48, seed=21)

    def recorded():
        return [
            calu(A, block_size=8, nblocks=4, track_growth=True,
                 compute_thresholds=True, pivoting=pivoting)
            for pivoting in ("ca", "ca_prrp", "pp")
        ]

    fast = recorded()
    monkeypatch.setattr(tournament, "leaf_candidates", reference_leaves)
    monkeypatch.setattr(rrqr_module, "_lapack_pivots", lambda *a: None)
    for auto, ref in zip(fast, recorded()):
        assert auto.growth_history == ref.growth_history, auto.pivoting
        assert np.array_equal(auto.threshold_history, ref.threshold_history)
        assert np.array_equal(auto.packed, ref.packed), auto.pivoting


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
    history: list = []
    g = getrf_partial_pivoting(A, track_growth=True)
    ref = getf2(A, track_growth=history)
    assert g.growth_history == history
    assert np.array_equal(g.U, np.triu(getf2(A, reference=True).lu))
    assert np.array_equal(g.U, np.triu(ref.lu))


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
