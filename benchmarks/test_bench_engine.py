"""Benchmark: the scheduler with group collectives ("coroutine") and without ("event").

Records, in the benchmark JSON (``extra_info``):

* wall-clock for the same simulated TSLU under both engine names at moderate
  P, and a P = 256 distributed TSLU on the point-to-point reference,
* a collective-round SPMD program at P = 512, group-level evaluation against
  the point-to-point trees on the same scheduler (recorded, not gated),
* the failure path: a genuine communication mismatch is detected
  structurally in well under 0.1 s under both names,
* the host work the group evaluation does *not* repeat: tournament merges
  evaluated per panel point to point (every rank's own, ``Pr log2 Pr``) over
  those of the group evaluation (the ``Pr - 1`` distinct ones),
* the largest process counts exercised: P = 888 (the paper's largest machine)
  point to point, P = 4096 TSLU and a full P = 2048 PDGESV solve with group
  collectives.

The simulated message/word/flop counts and critical-path times are identical
under both names by construction; these benchmarks track the *host* cost of
executing the simulation.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.options import SolveConfig
from repro.distsim import DeadlockError, RankFailedError, allreduce, run_spmd
from repro.machines import unit_machine
from repro.parallel import pcalu, ptslu
from repro.parallel.psolve import pdgesv
from repro.randmat import randn, tall_skinny


def _tslu(engine: str, P: int, b: int = 4):
    A = tall_skinny(4 * P, b, seed=1)
    return ptslu(A, nprocs=P, machine=unit_machine(), engine=engine)


def _sum(a, b):
    return a + b


def _allreduce_rounds(comm, rounds):
    """Communication-bound SPMD body: ``rounds`` whole-world all-reductions."""
    acc = float(comm.rank)
    for r in range(rounds):
        acc = yield from allreduce(comm, acc, _sum, tag=("round", r))
    return acc


def _collective_storm(engine: str, P: int, rounds: int = 16):
    return run_spmd(P, _allreduce_rounds, rounds, machine=unit_machine(), engine=engine)


def _pdgesv(engine: str, Pr: int, Pc: int, n: int, b: int):
    A = randn(n, seed=2)
    x = randn(n, 1, seed=3)
    rhs = A @ x
    return pdgesv(A, rhs, SolveConfig.resolve(grid=(Pr, Pc), b=b, engine=engine))


@pytest.mark.parametrize("engine", ["event", "coroutine"])
def test_bench_engine_tslu_p32(benchmark, engine):
    """Same simulated TSLU (P = 32) under both engine names."""
    res = benchmark.pedantic(_tslu, args=(engine, 32), rounds=3, iterations=1)
    assert res.trace.max_messages == 5  # log2(32)
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["P"] = 32


def test_bench_engine_paper_scale_tslu_p256(benchmark):
    """P = 256 distributed TSLU on the point-to-point reference, with the
    simulated quantities checked against the group evaluation."""
    P = 256
    res_event = benchmark.pedantic(_tslu, args=("event", P), rounds=1, iterations=1)
    res_coro = _tslu("coroutine", P)
    assert res_event.trace.summary() == res_coro.trace.summary()
    assert np.array_equal(res_event.winners, res_coro.winners)
    assert res_event.trace.max_messages == 8  # log2(256)
    benchmark.extra_info["P"] = P


def test_bench_engine_deadlock_detection_gap(benchmark):
    """Failure path: a communication mismatch fails structurally and
    instantly under both engine names — there is no timeout to wait out."""

    def mismatch(comm):
        if comm.rank == 1:
            return (yield from comm.co_recv(0, tag="never-sent"))

    def deadlock(engine):
        with pytest.raises(RankFailedError) as exc:
            run_spmd(2, mismatch, engine=engine)
        assert isinstance(exc.value.__cause__, DeadlockError)

    benchmark.pedantic(deadlock, args=("coroutine",), rounds=3, iterations=1)
    start = time.perf_counter()
    deadlock("event")
    event_seconds = time.perf_counter() - start

    assert benchmark.stats.stats.mean < 0.1  # structural: no waiting
    assert event_seconds < 0.1
    benchmark.extra_info["event_seconds"] = event_seconds


def test_bench_engine_max_p_888(benchmark):
    """The paper's largest process count, P = 888, point to point."""
    P, b = 888, 4
    A = tall_skinny(2 * P, b, seed=2)
    res = benchmark.pedantic(
        lambda: ptslu(A, nprocs=P, machine=unit_machine(), engine="event"),
        rounds=1,
        iterations=1,
    )
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-9)
    benchmark.extra_info["P"] = P
    benchmark.extra_info["max_messages_per_rank"] = res.trace.max_messages


def test_bench_engine_coroutine_collectives_p512(benchmark):
    """A communication-bound SPMD program (16 whole-world all-reduce rounds)
    at P = 512: each collective is one group-level event instead of P log P
    individually scheduled messages.  The point-to-point run on the same
    scheduler is timed alongside and recorded; wall-clock is not gated.
    """
    P, rounds = 512, 16
    _collective_storm("coroutine", 64, rounds=4)  # warm caches off the clock
    res_coro = benchmark.pedantic(
        _collective_storm, args=("coroutine", P), rounds=3, iterations=1
    )

    start = time.perf_counter()
    res_event = _collective_storm("event", P)
    event_seconds = time.perf_counter() - start
    coroutine_seconds = benchmark.stats.stats.min

    # Engine contract: identical results and simulated quantities.
    assert res_coro.results == res_event.results
    assert res_coro.summary() == res_event.summary()
    assert res_coro.total_group_collectives == P * rounds
    assert res_event.total_group_collectives == 0

    benchmark.extra_info["P"] = P
    benchmark.extra_info["rounds"] = rounds
    benchmark.extra_info["event_seconds"] = event_seconds
    benchmark.extra_info["coroutine_seconds"] = coroutine_seconds
    benchmark.extra_info["speedup_group_over_point_to_point"] = (
        event_seconds / coroutine_seconds
    )


def test_bench_pcalu_merge_dedup(benchmark, monkeypatch):
    """Host merge evaluations per panel at Pr = 16, b = 16: point to point
    every rank runs its redundant merge (Pr log2 Pr = 64), the group
    evaluation each distinct one (Pr - 1 = 15) while charging all ranks the
    same.  A count ratio, so machine-independent: at least 4x."""
    from repro.core import tournament

    merges = []
    original = tournament.merge_pairs

    def counting(pairs, *args):
        merges.append(len(pairs))
        return original(pairs, *args)

    monkeypatch.setattr(tournament, "merge_pairs", counting)
    Pr, Pc, n, b = 16, 2, 256, 16
    A = randn(n, seed=4)
    panels = n // b

    def factor(engine):
        del merges[:]
        res = pcalu(A, SolveConfig.resolve(grid=(Pr, Pc), b=b, engine=engine))
        return res, sum(merges) / panels

    res_coro, coroutine_merges = benchmark.pedantic(
        factor, args=("coroutine",), rounds=3, iterations=1
    )
    res_event, event_merges = factor("event")
    assert coroutine_merges == Pr - 1
    assert np.array_equal(res_coro.L, res_event.L)
    assert np.array_equal(res_coro.U, res_event.U)
    assert [r.clock for r in res_coro.trace.ranks] == [
        r.clock for r in res_event.trace.ranks
    ]
    assert [r.flops for r in res_coro.trace.ranks] == [
        r.flops for r in res_event.trace.ranks
    ]

    ratio = event_merges / coroutine_merges
    benchmark.extra_info["Pr"] = Pr
    benchmark.extra_info["b"] = b
    benchmark.extra_info["event_merges_per_panel"] = event_merges
    benchmark.extra_info["coroutine_merges_per_panel"] = coroutine_merges
    benchmark.extra_info["event_over_coroutine_merges_per_panel"] = ratio
    assert ratio >= 4.0


def test_bench_engine_coroutine_tslu_p4096(benchmark):
    """TSLU at P = 4096 — an order of magnitude beyond the paper's largest
    machine — with a bit-identity spot check against the point-to-point
    reference at an overlapping P."""
    P, b = 4096, 4
    res = benchmark.pedantic(_tslu, args=("coroutine", P, b), rounds=1, iterations=1)
    A = tall_skinny(4 * P, b, seed=1)
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-9)
    assert res.trace.max_messages == 12  # log2(4096)
    assert res.trace.total_group_collectives == P  # one tournament per rank

    # Overlapping-P parity: bit-identity (clocks included) at a P where the
    # point-to-point run is cheap.
    small = 256
    res_coro = _tslu("coroutine", small, b)
    res_event = _tslu("event", small, b)
    assert res_coro.trace.summary() == res_event.trace.summary()
    assert [r.clock for r in res_coro.trace.ranks] == [
        r.clock for r in res_event.trace.ranks
    ]
    assert np.array_equal(res_coro.winners, res_event.winners)

    benchmark.extra_info["P"] = P
    benchmark.extra_info["max_messages_per_rank"] = res.trace.max_messages
    benchmark.extra_info["group_collectives"] = res.trace.total_group_collectives


def test_bench_engine_coroutine_pdgesv_p2048(benchmark):
    """A full distributed solve (PDGESV: CALU + two triangular solves +
    refinement) at P = 2048, with overlapping-P bit-identity against the
    point-to-point reference."""
    Pr, Pc, n, b = 64, 32, 256, 4
    res = benchmark.pedantic(
        _pdgesv, args=("coroutine", Pr, Pc, n, b), rounds=1, iterations=1
    )
    A = randn(n, seed=2)
    x = randn(n, 1, seed=3)
    rhs = A @ x
    assert float(np.max(np.abs(A @ res.x - rhs))) < 1e-10 * np.max(np.abs(rhs))

    # Overlapping-P parity (8 x 8 grid): same solve, bit-identical traces.
    res_coro = _pdgesv("coroutine", 8, 8, 64, b)
    res_event = _pdgesv("event", 8, 8, 64, b)
    assert np.array_equal(res_coro.x, res_event.x)
    assert res_coro.trace.summary() == res_event.trace.summary()
    assert [r.clock for r in res_coro.trace.ranks] == [
        r.clock for r in res_event.trace.ranks
    ]

    benchmark.extra_info["P"] = Pr * Pc
    benchmark.extra_info["n"] = n
    benchmark.extra_info["group_collectives"] = res.trace.total_group_collectives
