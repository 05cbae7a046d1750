"""Benchmark: the tiered & batched numerical kernel layer.

Records, in the benchmark JSON (``extra_info``):

* per-tier ``getf2`` throughput — the reference per-column Python loop vs the
  LAPACK tier (``dgetrf`` + closed-form flop accounting);
* per-tier strong-RRQR row selection (CALU_PRRP's tournament kernel) on a
  128 x 64 leaf and a 128 x 64 merge — the ``Q``-accumulating factorization
  the selection used to run, the selection-only reference loop, and the
  verified ``dgeqp3`` tier;
* sequential vs batched tournament reduction rounds at the paper-relevant
  shape ``P = 64, b = 32`` — binary pairings (every merge distinct) and
  butterfly pairings (every merge performed once per participant, the
  redundant work the paper trades for fewer messages);
* CALU end-to-end at ``n = 1024, b = 32, P = 64`` per tier.

Every speedup is recorded *for bit-identical results*: the assertions verify
that the fast path returns exactly the winners / factors / permutations of
the reference tier before the timing is reported.  The CI regression gate
(``benchmarks/check_regression.py``) reads these numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import calu
from repro.core.tournament import CandidateSet, merge_round
from repro.kernels import FlopCounter, getf2, rrqr, select_rows_rrqr
from repro.randmat import randn


def _best_of(fn, reps=3):
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _round_pairs(P: int, b: int, butterfly: bool, seed: int = 0):
    """One reduction round's pairs over P candidate sets of shape b x b."""
    rng = np.random.default_rng(seed)
    cands = [
        CandidateSet(
            rows=np.arange(i * b, (i + 1) * b), block=rng.standard_normal((b, b))
        )
        for i in range(P)
    ]
    if butterfly:
        pairs = []
        for i in range(P):
            partner = i ^ 1
            lo, hi = min(i, partner), max(i, partner)
            pairs.append((cands[lo], cands[hi]))
        return pairs
    return [(cands[i], cands[i + 1]) for i in range(0, P, 2)]


def test_bench_kernels_getf2_tiers(benchmark):
    """Reference loop vs LAPACK tier on a 256 x 128 block (identical pivots)."""
    A = randn(256, 128, seed=1)
    ref = getf2(A, kernel_tier="reference")

    res = benchmark.pedantic(
        lambda: getf2(A, kernel_tier="auto"), rounds=5, iterations=1
    )
    assert np.array_equal(res.ipiv, ref.ipiv)
    assert np.array_equal(res.perm, ref.perm)
    assert np.allclose(res.lu, ref.lu, atol=1e-12)

    reference_seconds, _ = _best_of(lambda: getf2(A, kernel_tier="reference"))
    lapack_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / lapack_seconds
    benchmark.extra_info["m"] = 256
    benchmark.extra_info["n"] = 128
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["lapack_seconds"] = lapack_seconds
    benchmark.extra_info["speedup_lapack_over_reference"] = speedup
    print(f"\ngetf2 256x128: reference {reference_seconds*1e3:.2f}ms, "
          f"lapack {lapack_seconds*1e3:.2f}ms, speedup {speedup:.1f}x")
    assert speedup >= 2.0


def test_bench_kernels_rrqr_select_tiers(benchmark):
    """Strong-RRQR selection of 64 rows: a 128 x 64 leaf and a 128 x 64 merge.

    Same rows, same order, same ledger on both tiers (asserted first); the
    public ``rrqr`` stands in for the parent's selection, which accumulated
    the ``Q`` factor nobody read.
    """
    rng = np.random.default_rng(1)
    leaf = rng.standard_normal((128, 64))
    other = rng.standard_normal((128, 64))
    merge = np.vstack(
        [blk[select_rows_rrqr(blk, 64, kernel_tier="reference")] for blk in (leaf, other)]
    )
    blocks = (leaf, merge)

    for block in blocks:
        fr, fl = FlopCounter(), FlopCounter()
        ref = select_rows_rrqr(block, 64, flops=fr, kernel_tier="reference")
        fast = select_rows_rrqr(block, 64, flops=fl, kernel_tier="auto")
        assert np.array_equal(ref, fast)
        assert (fr.muladds, fr.divides, fr.comparisons) == (
            fl.muladds, fl.divides, fl.comparisons,
        )

    def select(tier):
        return [select_rows_rrqr(block, 64, kernel_tier=tier) for block in blocks]

    # On a small box an idle BLAS worker thread is slow to wake: for about a
    # second every threaded trsm (the threshold check) costs a scheduler
    # quantum, ~8 ms, on every tier alike.  Spin until that has passed.
    deadline = time.perf_counter() + 2.0
    while _best_of(lambda: select("lapack"), reps=1)[0] > 2e-3:
        if time.perf_counter() > deadline:
            break

    benchmark.pedantic(lambda: select("lapack"), rounds=10, iterations=1)
    lapack_seconds = benchmark.stats.stats.min
    reference_seconds, _ = _best_of(lambda: select("reference"), reps=5)
    with_q_seconds, _ = _best_of(lambda: [rrqr(block.T, k=64) for block in blocks], reps=5)
    speedup = reference_seconds / lapack_seconds
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["lapack_seconds"] = lapack_seconds
    benchmark.extra_info["parent_reference_seconds"] = with_q_seconds
    benchmark.extra_info["speedup_lapack_over_reference"] = speedup
    benchmark.extra_info["speedup_selection_only_over_parent_reference"] = (
        with_q_seconds / reference_seconds
    )
    print(f"\nrrqr select 128x64 leaf + merge: with Q {with_q_seconds*1e3:.2f}ms, "
          f"selection-only {reference_seconds*1e3:.2f}ms, lapack "
          f"{lapack_seconds*1e3:.2f}ms, speedup {speedup:.1f}x")
    assert speedup >= 5.0


def test_bench_kernels_batched_tournament_round(benchmark):
    """One tournament reduction round at P = 64, b = 32: batched vs sequential.

    The butterfly pairing is benchmarked (it is the communication pattern of
    the parallel TSLU; each pair is merged once per participant, and the
    batched path factors each unique pair once while charging the flop
    ledger for every logical merge).  The binary pairing's speedup is
    recorded alongside.  Results are asserted bit-identical first.
    """
    P, b = 64, 32
    pairs = _round_pairs(P, b, butterfly=True)

    # Bit-identity + flop parity before timing anything.
    f_seq, f_bat = FlopCounter(), FlopCounter()
    seq_merged, seq_U = merge_round(pairs, b, f_seq, kernel_tier="reference")
    bat_merged, bat_U = merge_round(pairs, b, f_bat, kernel_tier="auto")
    assert np.array_equal(seq_U, bat_U)
    for s, t in zip(seq_merged, bat_merged):
        assert np.array_equal(s.rows, t.rows)
        assert np.array_equal(s.block, t.block)
    assert (f_seq.muladds, f_seq.divides, f_seq.comparisons) == (
        f_bat.muladds, f_bat.divides, f_bat.comparisons,
    )

    benchmark.pedantic(
        lambda: merge_round(pairs, b, FlopCounter(), kernel_tier="auto"),
        rounds=5, iterations=1,
    )
    batched_seconds = benchmark.stats.stats.min
    sequential_seconds, _ = _best_of(
        lambda: merge_round(pairs, b, FlopCounter(), kernel_tier="reference")
    )
    speedup = sequential_seconds / batched_seconds

    bin_pairs = _round_pairs(P, b, butterfly=False)
    bin_seq, _ = _best_of(
        lambda: merge_round(bin_pairs, b, FlopCounter(), kernel_tier="reference")
    )
    bin_bat, _ = _best_of(
        lambda: merge_round(bin_pairs, b, FlopCounter(), kernel_tier="auto")
    )

    benchmark.extra_info["P"] = P
    benchmark.extra_info["b"] = b
    benchmark.extra_info["sequential_seconds"] = sequential_seconds
    benchmark.extra_info["batched_seconds"] = batched_seconds
    benchmark.extra_info["speedup_batched_round"] = speedup
    benchmark.extra_info["speedup_batched_round_binary"] = bin_seq / bin_bat
    print(f"\ntournament round P={P} b={b}: sequential {sequential_seconds*1e3:.1f}ms, "
          f"batched {batched_seconds*1e3:.1f}ms, speedup {speedup:.1f}x "
          f"(binary pairing: {bin_seq / bin_bat:.1f}x)")
    # Acceptance: the batched path must be >= 5x the sequential merges.
    assert speedup >= 5.0


def test_bench_kernels_calu_end_to_end(benchmark):
    """CALU at n = 1024, b = 32, P = 64: auto tier vs reference tier."""
    n, b, P = 1024, 32, 64
    A = randn(n, seed=3)

    res_auto = benchmark.pedantic(
        lambda: calu(A, block_size=b, nblocks=P, kernel_tier="auto"),
        rounds=2,
        iterations=1,
    )
    auto_seconds = benchmark.stats.stats.min
    reference_seconds, res_ref = _best_of(
        lambda: calu(A, block_size=b, nblocks=P, kernel_tier="reference"), reps=1
    )

    # The tiers must agree bit-for-bit before the speedup means anything.
    assert np.array_equal(res_auto.perm, res_ref.perm)
    assert np.array_equal(res_auto.L, res_ref.L)
    assert np.array_equal(res_auto.U, res_ref.U)

    speedup = reference_seconds / auto_seconds
    benchmark.extra_info["n"] = n
    benchmark.extra_info["b"] = b
    benchmark.extra_info["P"] = P
    benchmark.extra_info["auto_seconds"] = auto_seconds
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["speedup_vs_reference"] = speedup
    print(f"\nCALU n={n} b={b} P={P}: auto {auto_seconds:.3f}s, "
          f"reference {reference_seconds:.3f}s, speedup {speedup:.2f}x")
    assert speedup > 1.0


def test_bench_kernels_calu_butterfly_end_to_end(benchmark):
    """CALU with the butterfly (all-reduction) schedule: the redundant-merge
    dedup makes the auto tier's advantage widest here."""
    n, b, P = 512, 32, 32
    A = randn(n, seed=4)

    res_auto = benchmark.pedantic(
        lambda: calu(A, block_size=b, nblocks=P, schedule="butterfly",
                     kernel_tier="auto"),
        rounds=2,
        iterations=1,
    )
    auto_seconds = benchmark.stats.stats.min
    reference_seconds, res_ref = _best_of(
        lambda: calu(A, block_size=b, nblocks=P, schedule="butterfly",
                     kernel_tier="reference"),
        reps=1,
    )
    assert np.array_equal(res_auto.perm, res_ref.perm)
    assert np.array_equal(res_auto.U, res_ref.U)

    speedup = reference_seconds / auto_seconds
    benchmark.extra_info["n"] = n
    benchmark.extra_info["b"] = b
    benchmark.extra_info["P"] = P
    benchmark.extra_info["speedup_vs_reference"] = speedup
    print(f"\nCALU butterfly n={n} b={b} P={P}: auto {auto_seconds:.3f}s, "
          f"reference {reference_seconds:.3f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0
