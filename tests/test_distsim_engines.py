"""Tests for the virtual-MPI scheduler and its two engine names.

One scheduler runs every SPMD program.  ``"coroutine"`` evaluates collectives
as group-level events (:mod:`repro.distsim.engine.group_ops`); ``"event"`` is
the same scheduler walking the collectives' point-to-point trees — the
reference.  The contract: both produce **identical** simulated quantities —
message counts, word counts, flop counts (muladds / divides / comparisons)
and per-rank clocks, hence critical-path times — for the same rank program,
bit-for-bit reproducibly, with structural (instant) deadlock detection.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.distsim import (
    DeadlockError,
    RankFailedError,
    UnknownEngineError,
    allgather,
    allreduce,
    available_engines,
    broadcast,
    get_engine,
    resolve_engine,
    run_spmd,
)
from repro.core.options import SolveConfig
from repro.distsim.engine import ExecutionEngine
from repro.layouts import ProcessGrid
from repro.machines import MachineModel, ibm_power5, unit_machine
from repro.parallel import pcalu, ptslu, run_block_lu
from repro.parallel.psolve import pdgesv
from repro.randmat import randn, tall_skinny
from repro.scalapack import make_pdgetf2_panel


def p5(grid, b, engine, **knobs):
    """The config of a run on ``grid`` with block size ``b``, priced on the POWER5."""
    return SolveConfig.resolve(grid=grid, b=b, machine="ibm_power5", engine=engine, **knobs)

ENGINES = ("coroutine", "event")

#: Engines other than the point-to-point reference, whose traces must match it.
OTHERS = ("coroutine",)


def assert_traces_identical(t1, t2):
    """Every simulated quantity must match rank for rank, bit for bit."""
    assert t1.nprocs == t2.nprocs
    for a, b in zip(t1.ranks, t2.ranks):
        assert a.messages_sent == b.messages_sent, a.rank
        assert a.messages_received == b.messages_received, a.rank
        assert a.words_sent == b.words_sent, a.rank
        assert a.words_received == b.words_received, a.rank
        assert a.messages_by_channel == b.messages_by_channel, a.rank
        assert a.words_by_channel == b.words_by_channel, a.rank
        assert a.flops.muladds == b.flops.muladds, a.rank
        assert a.flops.divides == b.flops.divides, a.rank
        assert a.flops.comparisons == b.flops.comparisons, a.rank
        assert a.clock == b.clock, a.rank
    assert t1.critical_path_time == t2.critical_path_time


# ------------------------------------------------------------ registry seam
def test_engine_registry_lists_all_backends():
    assert available_engines() == ["coroutine", "event"]
    for name in ENGINES:
        assert isinstance(get_engine(name), ExecutionEngine)
        assert get_engine(name).name == name
    # Instances resolve too.
    eng = get_engine("event")
    assert resolve_engine(eng) is eng


def test_engine_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown execution engine"):
        get_engine("quantum")
    with pytest.raises(TypeError):
        resolve_engine(3.14)


def test_unknown_engine_error_names_offender_and_lists_registered():
    """Satellite: the lookup failure is a named error carrying the bad name
    and every registered engine name, and the message lists them."""
    with pytest.raises(UnknownEngineError) as exc:
        get_engine("quantum")
    assert exc.value.name == "quantum"
    assert exc.value.available == ["coroutine", "event"]
    for name in ("quantum", "coroutine", "event"):
        assert name in str(exc.value)
    # It is both a SimulationError and a ValueError.
    assert isinstance(exc.value, ValueError)


def test_unknown_engine_config_value_raises_named_error():
    with pytest.raises(UnknownEngineError) as exc:
        SolveConfig.resolve(engine="warp-drive")
    assert exc.value.name == "warp-drive"
    assert "coroutine" in str(exc.value)


def test_engine_argument_selects_backend():
    assert run_spmd(2, lambda comm: comm.rank, engine="event").engine == "event"
    assert run_spmd(1, lambda comm: comm.rank).engine == "coroutine"


# ------------------------------------------------- cross-backend parity
@pytest.mark.parametrize("p", [2, 3, 5, 8])
def test_collective_program_parity(p):
    machine = MachineModel(
        name="t", gamma=1e-9, gamma_d=4e-9, alpha=1e-6, beta=1e-8,
        alpha_row=2e-6, beta_col=3e-8,
    )

    def prog(comm):
        comm.charge_flops(muladds=10 * (comm.rank + 1), divides=comm.rank,
                          comparisons=3)
        v = yield from allreduce(comm, comm.rank + 1, lambda a, b: a + b,
                                 channel="col")
        w = yield from broadcast(comm, np.arange(6.0) if comm.rank == 0 else None,
                                 root=0, channel="row")
        g = yield from allgather(comm, comm.rank * 2)
        return (v, float(np.sum(w)), g)

    traces = {e: run_spmd(p, prog, machine=machine, engine=e) for e in ENGINES}
    for other in OTHERS:
        assert_traces_identical(traces["event"], traces[other])
        assert traces["event"].results == traces[other].results
    # Group delivery is the only difference between the two names.
    assert traces["coroutine"].total_group_collectives > 0
    assert traces["event"].total_group_collectives == 0


@pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
@pytest.mark.parametrize("other", OTHERS)
def test_ptslu_parity(nprocs, other):
    A = tall_skinny(64, 8, seed=nprocs)
    res_e = ptslu(A, nprocs=nprocs, machine=ibm_power5(), engine="event")
    res_o = ptslu(A, nprocs=nprocs, machine=ibm_power5(), engine=other)
    assert_traces_identical(res_e.trace, res_o.trace)
    assert np.array_equal(res_e.winners, res_o.winners)
    assert np.allclose(res_e.L, res_o.L)
    assert np.allclose(res_e.U, res_o.U)


@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(16, 4, 2, 2), (32, 8, 2, 2), (36, 6, 2, 3)],
)
@pytest.mark.parametrize("other", OTHERS)
def test_pcalu_parity(n, b, pr, pc, other):
    A = randn(n, seed=n + b)
    grid = ProcessGrid(pr, pc)
    res_e = pcalu(A, p5(grid, b, "event"))
    res_o = pcalu(A, p5(grid, b, other))
    assert_traces_identical(res_e.trace, res_o.trace)
    assert np.array_equal(res_e.perm, res_o.perm)
    assert np.allclose(res_e.L, res_o.L)
    assert np.allclose(res_e.U, res_o.U)


@pytest.mark.parametrize("other", OTHERS)
def test_pdgetrf_parity(other):
    A = randn(32, seed=3)
    grid = ProcessGrid(2, 2)
    res_e = pcalu(A, p5(grid, 8, "event", pivoting="pp"))
    res_o = pcalu(A, p5(grid, 8, other, pivoting="pp"))
    assert_traces_identical(res_e.trace, res_o.trace)
    assert np.array_equal(res_e.perm, res_o.perm)


@pytest.mark.parametrize("other", OTHERS)
def test_pdgesv_parity(other):
    """End-to-end solve: factorization + triangular solves + refinement must
    be bit-identical (traces and solutions) across both engines."""
    n = 24
    A = randn(n, seed=41)
    b = randn(n, 2, seed=42)
    grid = ProcessGrid(2, 2)
    res_e = pdgesv(A, b, p5(grid, 8, "event"))
    res_o = pdgesv(A, b, p5(grid, 8, other))
    assert_traces_identical(res_e.trace, res_o.trace)
    assert_traces_identical(res_e.factorization.trace, res_o.factorization.trace)
    assert np.array_equal(res_e.x, res_o.x)
    assert res_e.residual_norms == res_o.residual_norms
    assert res_e.backward_errors == res_o.backward_errors


# ------------------------------------------- ragged panels + pivoting knob
@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(22, 8, 2, 2), (21, 8, 2, 2), (26, 8, 2, 3), (23, 8, 3, 2)],
)
@pytest.mark.parametrize("other", OTHERS)
def test_pcalu_ragged_edge_parity(n, b, pr, pc, other):
    """n % block_size != 0 (and non-power-of-two grids): the fringe panel
    must behave identically on every engine and still factor correctly."""
    A = randn(n, seed=100 + n)
    grid = ProcessGrid(pr, pc)
    res_e = pcalu(A, p5(grid, b, "event"))
    res_o = pcalu(A, p5(grid, b, other))
    assert_traces_identical(res_e.trace, res_o.trace)
    assert np.array_equal(res_e.perm, res_o.perm)
    assert np.array_equal(res_e.L, res_o.L)  # same code path: bitwise
    assert np.array_equal(res_e.U, res_o.U)
    assert np.allclose(A[res_e.perm, :], res_e.L @ res_e.U, atol=1e-11)


def test_pdgesv_ragged_nonpow2_three_way():
    """Satellite: pdgesv at non-power-of-two P (3x2 grid) with n % b != 0 runs
    bit-identically on both engines."""
    n = 26
    A = randn(n, seed=55)
    b = randn(n, 1, seed=56)[:, 0]
    grid = ProcessGrid(3, 2)
    results = {
        e: pdgesv(A, b, p5(grid, 8, e))
        for e in ENGINES
    }
    for other in OTHERS:
        assert_traces_identical(results["event"].trace, results[other].trace)
        assert_traces_identical(
            results["event"].factorization.trace,
            results[other].factorization.trace,
        )
        assert np.array_equal(results["event"].x, results[other].x)
    assert np.allclose(A @ results["coroutine"].x, b, atol=1e-9)


@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
@pytest.mark.parametrize("other", OTHERS)
def test_pcalu_pivoting_knob_parity_across_engines(strategy, other):
    """Every pivoting strategy must run identically on every engine, on a
    ragged (n=22, b=8) 2x2 problem."""
    A = randn(22, seed=7)
    grid = ProcessGrid(2, 2)
    res_e = pcalu(A, p5(grid, 8, "event", pivoting=strategy))
    res_o = pcalu(A, p5(grid, 8, other, pivoting=strategy))
    assert_traces_identical(res_e.trace, res_o.trace)
    assert np.array_equal(res_e.perm, res_o.perm)
    assert np.array_equal(res_e.L, res_o.L)
    assert np.array_equal(res_e.U, res_o.U)
    assert np.allclose(A[res_e.perm, :], res_e.L @ res_e.U, atol=1e-11)


@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
@pytest.mark.parametrize("other", OTHERS)
def test_ptslu_pivoting_knob_parity_across_engines(strategy, other):
    A = tall_skinny(52, 8, seed=3)  # 52 rows over 4 ranks: uneven blocks
    res_e = ptslu(A, nprocs=4, machine=ibm_power5(), engine="event",
                  pivoting=strategy)
    res_o = ptslu(A, nprocs=4, machine=ibm_power5(), engine=other,
                  pivoting=strategy)
    assert_traces_identical(res_e.trace, res_o.trace)
    assert np.array_equal(res_e.winners, res_o.winners)
    assert np.array_equal(res_e.L, res_o.L)
    assert np.array_equal(res_e.U, res_o.U)
    assert np.allclose(A[res_e.perm, :], res_e.L @ res_e.U, atol=1e-11)


@pytest.mark.parametrize("nprocs", [3, 5, 6, 7])
def test_ptslu_nonpow2_three_way_parity(nprocs):
    """Satellite: non-power-of-two P exercises the allreduce fold/unfold edge
    on both engines."""
    A = tall_skinny(8 * nprocs + 3, 8, seed=nprocs)
    results = {
        e: ptslu(A, nprocs=nprocs, machine=ibm_power5(), engine=e)
        for e in ENGINES
    }
    for other in OTHERS:
        assert_traces_identical(results["event"].trace, results[other].trace)
        assert np.array_equal(results["event"].winners, results[other].winners)
        assert np.array_equal(results["event"].L, results[other].L)
        assert np.array_equal(results["event"].U, results[other].U)


def test_ptslu_pp_costs_per_column_messages():
    """The paper's latency argument, measured: column-by-column partial
    pivoting sends ~2 b log2 P messages per panel, the tournament log2 P."""
    P, b = 8, 8
    A = tall_skinny(16 * b, b, seed=5)
    res_ca = ptslu(A, nprocs=P, engine="event", pivoting="ca")
    res_pp = ptslu(A, nprocs=P, engine="event", pivoting="pp")
    assert res_ca.trace.max_messages == np.log2(P)  # one butterfly
    # pp: per column one all-reduce + one broadcast over log2(P) levels.
    assert res_pp.trace.max_messages >= 2 * b * np.log2(P) / 2
    assert res_pp.trace.max_messages > b * res_ca.trace.max_messages


def test_pcalu_pp_is_exactly_pdgetrf():
    """pivoting="pp" routes the panel to PDGETF2: bit-for-bit the baseline
    driver (the shared block LU with the PDGETF2 panel)."""
    A = randn(32, seed=3)
    grid = ProcessGrid(2, 2)
    res_pp = pcalu(A, p5(grid, 8, "event", pivoting="pp"))
    ref = run_block_lu(A, grid, 8, panel_factory=make_pdgetf2_panel,
                       machine=ibm_power5(), engine="event")
    assert np.array_equal(res_pp.perm, ref.perm)
    assert np.array_equal(res_pp.L, ref.L)
    assert np.array_equal(res_pp.U, ref.U)
    assert_traces_identical(res_pp.trace, ref.trace)


# ---------------------------------------------------------- event: determinism
def test_event_engine_bitwise_reproducible():
    A = randn(32, seed=17)
    grid = ProcessGrid(2, 2)
    first = pcalu(A, p5(grid, 8, "event"))
    second = pcalu(A, p5(grid, 8, "event"))
    assert_traces_identical(first.trace, second.trace)
    assert first.trace.ranks[0].zero_copy_sends == second.trace.ranks[0].zero_copy_sends
    assert np.array_equal(first.L, second.L)
    assert np.array_equal(first.U, second.U)  # bitwise, not just allclose


def test_event_engine_trace_tagged():
    """The trace names its engine; a rank program with no suspension point
    need not be a generator — its return value is the rank's result."""
    for engine in ENGINES:
        trace = run_spmd(3, lambda comm: comm.rank * 10, engine=engine)
        assert trace.engine == engine
        assert trace.results == [0, 10, 20]


# --------------------------------------------------- event: deadlock handling
def test_event_engine_structural_deadlock_is_instant():
    """No timeout involved: an unmatched receive fails as soon as the
    scheduler observes that no rank is runnable."""

    def prog(comm):
        if comm.rank == 1:
            return (yield from comm.co_recv(0, tag="never"))

    start = time.perf_counter()
    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog, engine="event")
    assert time.perf_counter() - start < 1.0
    cause = exc.value.__cause__
    assert isinstance(cause, DeadlockError)
    assert "structural deadlock" in str(cause)
    # Satellite: the error reports, per blocked rank, the (source, tag) it
    # was waiting on — both in the message and as structured data.
    assert cause.blocked == {1: {"source": 0, "tag": "never"}}
    assert "rank 1 waiting for (source=0, tag='never')" in str(cause)


def test_event_engine_detects_cyclic_deadlock():
    def prog(comm):
        other = 1 - comm.rank
        return (yield from comm.co_recv(other, tag="cycle"))  # nobody sends

    start = time.perf_counter()
    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog, engine="event")
    assert time.perf_counter() - start < 1.0
    cause = exc.value.__cause__
    assert isinstance(cause, DeadlockError)
    # Both ranks are reported with the peer/tag they each wait on.
    assert cause.blocked == {
        0: {"source": 1, "tag": "cycle"},
        1: {"source": 0, "tag": "cycle"},
    }


def test_event_engine_rank_exception_propagates():
    def prog(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        return comm.rank

    with pytest.raises(RankFailedError) as exc:
        run_spmd(3, prog, engine="event")
    assert isinstance(exc.value.__cause__, ValueError)


def test_event_engine_peer_failure_fails_blocked_ranks_fast():
    """A rank waiting on a crashed peer gets a structural DeadlockError
    instead of hanging."""

    def prog(comm):
        if comm.rank == 0:
            raise RuntimeError("crashed before sending")
        return (yield from comm.co_recv(0, tag="x"))

    start = time.perf_counter()
    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog, engine="event")
    assert time.perf_counter() - start < 1.0
    assert isinstance(exc.value.failures[0], RuntimeError)
    assert isinstance(exc.value.failures[1], DeadlockError)
    # The chained cause is the root failure (the crash), not the secondary
    # deadlock it induced in the waiting rank.
    assert isinstance(exc.value.__cause__, RuntimeError)


# ------------------------------------------------------- aliasing safety
def test_event_engine_still_copies_aliased_payloads():
    """Payloads are defensively copied, so post-send mutation never leaks to
    the receiver."""

    def prog(comm):
        if comm.rank == 0:
            data = np.ones(3)
            comm.send(1, data, tag=0)
            data[:] = -1.0
        else:
            return (yield from comm.co_recv(0, tag=0))

    trace = run_spmd(2, prog, engine="event")
    assert trace.ranks[0].zero_copy_sends == 0
    assert np.allclose(trace.results[1], 1.0)


# ----------------------------------------------------------- event: scale
def test_event_engine_runs_paper_scale_tslu():
    """P = 256 distributed TSLU on the point-to-point reference."""
    P, b = 256, 4
    A = tall_skinny(4 * P, b, seed=1)
    start = time.perf_counter()
    res = ptslu(A, nprocs=P, machine=unit_machine(), engine="event")
    elapsed = time.perf_counter() - start
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-10)
    assert res.trace.max_messages == 8  # log2(256)
    assert elapsed < 30.0


# --------------------------------------------------------- coroutine engine
def test_coroutine_engine_bitwise_reproducible():
    A = randn(32, seed=17)
    grid = ProcessGrid(2, 2)
    first = pcalu(A, p5(grid, 8, "coroutine"))
    second = pcalu(A, p5(grid, 8, "coroutine"))
    assert_traces_identical(first.trace, second.trace)
    assert np.array_equal(first.L, second.L)
    assert np.array_equal(first.U, second.U)  # bitwise, not just allclose


def test_coroutine_engine_counts_group_collectives():
    """Collectives over a rank group complete as ONE group-level event
    (diagnostic counter), while the charged messages/words/clocks stay
    bit-identical to the point-to-point evaluation."""
    A = tall_skinny(64, 8, seed=2)
    res_c = ptslu(A, nprocs=8, machine=unit_machine(), engine="coroutine")
    res_e = ptslu(A, nprocs=8, machine=unit_machine(), engine="event")
    assert res_c.trace.total_group_collectives == 8  # one butterfly per rank
    assert res_e.trace.total_group_collectives == 0
    assert_traces_identical(res_c.trace, res_e.trace)


def test_coroutine_engine_runs_generator_rank_functions_natively():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(4.0) * 3.0, tag="x")
            return "sent"
        got = yield from comm.co_recv(0, tag="x")
        return float(np.sum(got))

    trace = run_spmd(2, prog, engine="coroutine")
    assert trace.engine == "coroutine"
    assert trace.results == ["sent", 18.0]


def test_coroutine_engine_structural_deadlock_reports_p2p_and_collective():
    """Satellite: the coroutine deadlock error reports, per blocked rank, the
    (source, tag) or the collective it is stuck in."""

    def prog(comm):
        if comm.rank == 0:
            # Joins a collective nobody else ever joins.
            return (yield from allreduce(comm, 1, lambda a, b: a + b,
                                         group=[0, 1], tag="lonely"))
        if comm.rank == 1:
            return (yield from comm.co_recv(2, tag="ghost"))
        return None

    start = time.perf_counter()
    with pytest.raises(RankFailedError) as exc:
        run_spmd(3, prog, engine="coroutine")
    assert time.perf_counter() - start < 1.0
    cause = exc.value.__cause__
    assert isinstance(cause, DeadlockError)
    assert cause.blocked[0]["collective"] == "allreduce"
    assert cause.blocked[0]["tag"] == "lonely"
    assert cause.blocked[0]["group"] == (0, 1)
    assert cause.blocked[1] == {"source": 2, "tag": "ghost"}
    assert "waiting in collective" in str(cause)
    assert "rank 1 waiting for (source=2, tag='ghost')" in str(cause)


def test_coroutine_engine_rank_exception_propagates():
    def prog(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        return (yield from comm.co_recv(0, tag="never-sent"))

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog, engine="coroutine")
    # Root cause is the crash, not the deadlock it induced in rank 1.
    assert isinstance(exc.value.__cause__, ValueError)
    assert isinstance(exc.value.failures[1], DeadlockError)


def test_coroutine_engine_back_to_back_same_tag_collectives():
    """Repeated collectives with identical (kind, group, tag, channel) keys
    must rendezvous in FIFO order, not collapse into one event."""

    def prog(comm):
        total = 0
        for _ in range(3):
            total = yield from allreduce(comm, total + comm.rank + 1,
                                         lambda a, b: a + b, tag="same")
        return total

    t_c = run_spmd(4, prog, engine="coroutine")
    t_e = run_spmd(4, prog, engine="event")
    assert t_c.results == t_e.results
    assert_traces_identical(t_c, t_e)
    assert t_c.total_group_collectives == 12  # 3 rounds x 4 ranks


def test_coroutine_engine_runs_large_p_tslu():
    """P = 2048 TSLU on one host thread in seconds."""
    P, b = 2048, 2
    A = tall_skinny(2 * P, b, seed=1)
    start = time.perf_counter()
    res = ptslu(A, nprocs=P, machine=unit_machine(), engine="coroutine")
    elapsed = time.perf_counter() - start
    assert res.trace.max_messages == 11  # log2(2048)
    assert res.trace.total_group_collectives == P
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-10)
    assert elapsed < 60.0


# ---------------------------------------- rank-redundant host work, done once
@pytest.mark.parametrize("pivoting", ["ca", "ca_prrp"])
@pytest.mark.parametrize("n,b,pr,pc", [(52, 8, 4, 4), (47, 8, 3, 5)])
def test_pdgesv_coroutine_evaluates_pr_minus_1_merges_per_panel(
    host_merges, n, b, pr, pc, pivoting
):
    """Per panel the Pr ranks of the butterfly (fold + unfold when Pr is not a
    power of two) apply the merge Pr log2 Pr times; Pr - 1 are distinct.  The
    group evaluation computes exactly those while charging every rank what
    the point-to-point reference — which keeps the per-rank operator —
    charges, so every RankTrace field, the factors and the solution agree."""
    assert n % b != 0  # ragged last panel
    A = randn(n, seed=n)
    rhs = randn(n, 2, seed=n + 1)
    grid = ProcessGrid(pr, pc)
    panels = -(-n // b)

    results = {}
    merges = {}
    for engine in ENGINES:
        del host_merges[:]
        results[engine] = pdgesv(A, rhs, p5(grid, b, engine, pivoting=pivoting))
        merges[engine] = sum(host_merges)
    pow2 = 1 << (pr.bit_length() - 1)
    per_rank_path = panels * (pow2 * (pow2.bit_length() - 1) + (pr - pow2))
    assert merges["coroutine"] == panels * (pr - 1)
    assert merges["event"] == per_rank_path

    ref, res = results["coroutine"], results["event"]
    assert np.allclose(A @ ref.x, rhs, atol=1e-9)
    for t_ref, t in (
        (ref.factorization.trace, res.factorization.trace),
        (ref.trace, res.trace),
    ):
        assert_traces_identical(t_ref, t)
    assert np.array_equal(ref.factorization.L, res.factorization.L)
    assert np.array_equal(ref.factorization.U, res.factorization.U)
    assert np.array_equal(ref.factorization.perm, res.factorization.perm)
    assert np.array_equal(ref.x, res.x)


def test_pdgesv_group_collective_counts_on_an_8x8_grid():
    """A full P = 64 solve with 4 x 4 blocks: the group evaluation's collective
    count is exact per phase, the point-to-point reference makes none, and
    both runs agree bit for bit."""
    n = 64
    A = randn(n, seed=2)
    rhs = A @ randn(n, 1, seed=3)
    results = {
        engine: pdgesv(A, rhs, SolveConfig.resolve(grid=(8, 8), b=4, engine=engine))
        for engine in ENGINES
    }
    coro, event = results["coroutine"], results["event"]
    assert coro.factorization.trace.total_group_collectives == 2176
    assert coro.trace.total_group_collectives == 1376
    assert event.factorization.trace.total_group_collectives == 0
    assert event.trace.total_group_collectives == 0
    assert_traces_identical(coro.factorization.trace, event.factorization.trace)
    assert_traces_identical(coro.trace, event.trace)
    assert np.array_equal(coro.x, event.x)
    assert float(np.max(np.abs(A @ coro.x - rhs))) < 1e-10 * np.max(np.abs(rhs))


@pytest.mark.parametrize("p,root", [(2, 0), (5, 3), (16, 0), (16, 9)])
def test_coroutine_broadcast_sizes_its_payload_once(monkeypatch, p, root):
    """Every edge of a broadcast carries the root's value: the group-level
    evaluation walks the payload once, not once per tree edge."""
    from repro.distsim.engine import group_ops

    sized = []
    original = group_ops.payload_words

    def counting(payload):
        sized.append(payload)
        return original(payload)

    monkeypatch.setattr(group_ops, "payload_words", counting)
    payload = {"swaps": [(1, 2), (3, 4)], "rows": np.arange(6), "panel": np.ones((6, 2))}

    def prog(comm):
        got = yield from broadcast(
            comm, payload if comm.rank == root else None, root=root, channel="row"
        )
        return got["panel"].sum()

    res_c = run_spmd(p, prog, machine=ibm_power5(), engine="coroutine")
    assert len(sized) == 1 and sized[0] is payload
    res_e = run_spmd(p, prog, machine=ibm_power5(), engine="event")
    assert_traces_identical(res_e, res_c)
    assert res_c.results == res_e.results == [12.0] * p
