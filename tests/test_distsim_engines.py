"""Tests for the virtual-MPI scheduler and its engine registry.

One scheduler runs every SPMD program, registered as ``"coroutine"``; its
collectives are group-level events (:mod:`repro.distsim.engine.group_ops`).
What each collective charges is stated in closed form in
``tests/test_collectives_closed_form.py``.  The driver-level ``*_parity``
tests here compare every ``RankTrace`` field of a run against
:data:`REFERENCE`: fingerprints recorded from a point-to-point evaluation of
the same cells, which delivered every message of every collective through
``Communicator.send`` / ``co_recv``.  The scheduler's own guarantees —
bit-for-bit reproducibility, structural (instant) deadlock detection, failure
propagation, FIFO rendezvous — are tested directly; ``test_event_engine_*``
names the discrete-event scheduler.
"""

from __future__ import annotations

import hashlib
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


def p5(grid, b, engine=None, **knobs):
    """The config of a run on ``grid`` with block size ``b``, priced on the POWER5."""
    return SolveConfig.resolve(grid=grid, b=b, machine="ibm_power5", engine=engine, **knobs)


def fingerprint(trace) -> str:
    """Every simulated quantity of every rank, in rank order, hashed."""
    h = hashlib.sha256()
    for r in trace.ranks:
        h.update(repr((
            r.messages_sent, r.messages_received, r.words_sent, r.words_received,
            sorted(r.messages_by_channel.items()), sorted(r.words_by_channel.items()),
            r.flops.muladds, r.flops.divides, r.flops.comparisons, r.clock,
        )).encode())
    return h.hexdigest()[:16]


#: ``fingerprint`` of each cell's trace(s) under point-to-point delivery
#: (factorization first, then solve, for ``pdgesv`` cells).
REFERENCE = {
    "collective_program 2": "e2dffbf6a5e08917",
    "collective_program 3": "6e0a91b9312c85fc",
    "collective_program 5": "405cea66b3245041",
    "collective_program 8": "b1551530d7cdb2fc",
    "ptslu 2": "594277fff8d112fd",
    "ptslu 4": "6119ad1a29f18c44",
    "ptslu 5": "97d1bbcbce1c693d",
    "ptslu 8": "355ff988d1c56c01",
    "pcalu 16 4 2 2": "abfed2ba09a8d729",
    "pcalu 32 8 2 2": "58ef3b344ef7f24a",
    "pcalu 36 6 2 3": "c5516dad7dcf2991",
    "pdgetrf": "cb22d2c3d64a5ae0",
    "pdgesv": ("4f9b272acdee7eaa", "f86c112d4a66a0a4"),
    "ragged 22 8 2 2": "f590c167d1934e63",
    "ragged 21 8 2 2": "ff208512535635ca",
    "ragged 26 8 2 3": "4f08dfeed3e61eb7",
    "ragged 23 8 3 2": "c2c80ef4f7bb4a84",
    "pdgesv 3x2": ("4533a3c288da3f0f", "aceebbea8fea7028"),
    "pcalu knob pp": "52091bacca50fb45",
    "pcalu knob ca": "2d8db513ed20dda5",
    "pcalu knob ca_prrp": "abb23435ef4f95b9",
    "ptslu knob pp": "0dfbdbb5b800117b",
    "ptslu knob ca": "52615cbbbb33a93b",
    "ptslu knob ca_prrp": "24f5c3347c29e8dd",
    "ptslu nonpow2 3": "b99086eb368c4a44",
    "ptslu nonpow2 5": "322792f14e4e7d3c",
    "ptslu nonpow2 6": "113f8e8ed4a814ce",
    "ptslu nonpow2 7": "61bd681c5fa5d794",
    "merges 52 8 4 4 ca": ("d55b28d114dbdd36", "ee6a19056a8a824e"),
    "merges 52 8 4 4 ca_prrp": ("dce13e16fc10046c", "f5ef4c6889f193f8"),
    "merges 47 8 3 5 ca": ("e0fe37c5609845ae", "963745da2695c84a"),
    "merges 47 8 3 5 ca_prrp": ("05f034a4df9b0a1f", "1fc963cb7a96211a"),
    "grid8": ("3b43065a809e1084", "7e34e5b1cf63a460"),
    "counts ptslu8": "08124982da9a6802",
    "back_to_back": "e3e7a2b24495e5a1",
}


def solve_fingerprints(res):
    return fingerprint(res.factorization.trace), fingerprint(res.trace)


def assert_traces_identical(t1, t2):
    """Every simulated quantity must match rank for rank, bit for bit."""
    assert t1.nprocs == t2.nprocs
    assert fingerprint(t1) == fingerprint(t2)
    assert t1.critical_path_time == t2.critical_path_time


def assert_lu(A, res):
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-11)


# ------------------------------------------------------------ registry seam
def test_engine_registry_lists_all_backends():
    assert available_engines() == ["coroutine"]
    engine = get_engine("coroutine")
    assert isinstance(engine, ExecutionEngine)
    assert engine.name == "coroutine"
    # Instances resolve too.
    assert resolve_engine(engine) is engine


def test_engine_registry_rejects_unknown():
    for name in ("quantum", "event"):
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine(name)
    with pytest.raises(TypeError):
        resolve_engine(3.14)


def test_unknown_engine_error_names_offender_and_lists_registered():
    """The lookup failure is a named error carrying the bad name and every
    registered engine name, and the message lists them."""
    with pytest.raises(UnknownEngineError) as exc:
        get_engine("event")
    assert exc.value.name == "event"
    assert exc.value.available == ["coroutine"]
    for name in ("event", "coroutine"):
        assert name in str(exc.value)
    # It is both a SimulationError and a ValueError.
    assert isinstance(exc.value, ValueError)


def test_unknown_engine_config_value_raises_named_error():
    for name in ("warp-drive", "event"):
        with pytest.raises(UnknownEngineError) as exc:
            SolveConfig.resolve(engine=name)
        assert exc.value.name == name
        assert "coroutine" in str(exc.value)


def test_engine_argument_selects_backend():
    assert run_spmd(2, lambda comm: comm.rank, engine="coroutine").engine == "coroutine"
    assert run_spmd(1, lambda comm: comm.rank).engine == "coroutine"
    ran = []
    with pytest.raises(UnknownEngineError):
        run_spmd(2, lambda comm: ran.append(comm.rank), engine="event")
    assert ran == []  # rejected before any rank starts


# ------------------------------------------ parity with point-to-point delivery
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

    trace = run_spmd(p, prog, machine=machine)
    assert fingerprint(trace) == REFERENCE[f"collective_program {p}"]
    assert trace.results == [(p * (p + 1) // 2, 15.0, list(range(0, 2 * p, 2)))] * p
    assert trace.total_group_collectives == 3 * p


@pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
@pytest.mark.parametrize("engine", available_engines())
def test_ptslu_parity(nprocs, engine):
    A = tall_skinny(64, 8, seed=nprocs)
    res = ptslu(A, nprocs=nprocs, machine=ibm_power5(), engine=engine)
    assert fingerprint(res.trace) == REFERENCE[f"ptslu {nprocs}"]
    assert_lu(A, res)


@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(16, 4, 2, 2), (32, 8, 2, 2), (36, 6, 2, 3)],
)
@pytest.mark.parametrize("engine", available_engines())
def test_pcalu_parity(n, b, pr, pc, engine):
    A = randn(n, seed=n + b)
    res = pcalu(A, p5(ProcessGrid(pr, pc), b, engine))
    assert fingerprint(res.trace) == REFERENCE[f"pcalu {n} {b} {pr} {pc}"]
    assert_lu(A, res)


@pytest.mark.parametrize("engine", available_engines())
def test_pdgetrf_parity(engine):
    A = randn(32, seed=3)
    res = pcalu(A, p5(ProcessGrid(2, 2), 8, engine, pivoting="pp"))
    assert fingerprint(res.trace) == REFERENCE["pdgetrf"]
    assert_lu(A, res)


@pytest.mark.parametrize("engine", available_engines())
def test_pdgesv_parity(engine):
    """End-to-end solve: factorization, triangular solves and refinement
    charge every rank what point-to-point delivery charges."""
    n = 24
    A = randn(n, seed=41)
    b = randn(n, 2, seed=42)
    res = pdgesv(A, b, p5(ProcessGrid(2, 2), 8, engine))
    assert solve_fingerprints(res) == REFERENCE["pdgesv"]
    assert np.allclose(A @ res.x, b, atol=1e-9)
    assert len(res.residual_norms) == len(res.backward_errors) == res.iterations + 1


# ------------------------------------------- ragged panels + pivoting knob
@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(22, 8, 2, 2), (21, 8, 2, 2), (26, 8, 2, 3), (23, 8, 3, 2)],
)
@pytest.mark.parametrize("engine", available_engines())
def test_pcalu_ragged_edge_parity(n, b, pr, pc, engine):
    """n % block_size != 0 (and non-power-of-two grids): the fringe panel
    is charged as under point-to-point delivery and still factors correctly."""
    A = randn(n, seed=100 + n)
    res = pcalu(A, p5(ProcessGrid(pr, pc), b, engine))
    assert fingerprint(res.trace) == REFERENCE[f"ragged {n} {b} {pr} {pc}"]
    assert_lu(A, res)


def test_pdgesv_ragged_nonpow2_three_way():
    """pdgesv at non-power-of-two P (3x2 grid) with n % b != 0."""
    n = 26
    A = randn(n, seed=55)
    b = randn(n, 1, seed=56)[:, 0]
    res = pdgesv(A, b, p5(ProcessGrid(3, 2), 8))
    assert solve_fingerprints(res) == REFERENCE["pdgesv 3x2"]
    assert np.allclose(A @ res.x, b, atol=1e-9)


@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
@pytest.mark.parametrize("engine", available_engines())
def test_pcalu_pivoting_knob_parity_across_engines(strategy, engine):
    """Every pivoting strategy, on a ragged (n=22, b=8) 2x2 problem."""
    A = randn(22, seed=7)
    res = pcalu(A, p5(ProcessGrid(2, 2), 8, engine, pivoting=strategy))
    assert fingerprint(res.trace) == REFERENCE[f"pcalu knob {strategy}"]
    assert_lu(A, res)


@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
@pytest.mark.parametrize("engine", available_engines())
def test_ptslu_pivoting_knob_parity_across_engines(strategy, engine):
    A = tall_skinny(52, 8, seed=3)  # 52 rows over 4 ranks: uneven blocks
    res = ptslu(A, nprocs=4, machine=ibm_power5(), engine=engine, pivoting=strategy)
    assert fingerprint(res.trace) == REFERENCE[f"ptslu knob {strategy}"]
    assert_lu(A, res)


@pytest.mark.parametrize("nprocs", [3, 5, 6, 7])
def test_ptslu_nonpow2_three_way_parity(nprocs):
    """Non-power-of-two P exercises the all-reduce fold/unfold edge."""
    A = tall_skinny(8 * nprocs + 3, 8, seed=nprocs)
    res = ptslu(A, nprocs=nprocs, machine=ibm_power5())
    assert fingerprint(res.trace) == REFERENCE[f"ptslu nonpow2 {nprocs}"]
    assert_lu(A, res)


def test_ptslu_pp_costs_per_column_messages():
    """The paper's latency argument, measured: column-by-column partial
    pivoting sends ~2 b log2 P messages per panel, the tournament log2 P."""
    P, b = 8, 8
    A = tall_skinny(16 * b, b, seed=5)
    res_ca = ptslu(A, nprocs=P, pivoting="ca")
    res_pp = ptslu(A, nprocs=P, pivoting="pp")
    assert res_ca.trace.max_messages == np.log2(P)  # one butterfly
    # pp: per column one all-reduce + one broadcast over log2(P) levels.
    assert res_pp.trace.max_messages >= 2 * b * np.log2(P) / 2
    assert res_pp.trace.max_messages > b * res_ca.trace.max_messages


def test_pcalu_pp_is_exactly_pdgetrf():
    """pivoting="pp" routes the panel to PDGETF2: bit-for-bit the baseline
    driver (the shared block LU with the PDGETF2 panel)."""
    A = randn(32, seed=3)
    grid = ProcessGrid(2, 2)
    res_pp = pcalu(A, p5(grid, 8, pivoting="pp"))
    ref = run_block_lu(A, grid, 8, panel_factory=make_pdgetf2_panel,
                       machine=ibm_power5())
    assert np.array_equal(res_pp.perm, ref.perm)
    assert np.array_equal(res_pp.L, ref.L)
    assert np.array_equal(res_pp.U, ref.U)
    assert_traces_identical(res_pp.trace, ref.trace)


# ---------------------------------------------------------- scheduler: tags
def test_event_engine_trace_tagged():
    """The trace names its engine; a rank program with no suspension point
    need not be a generator — its return value is the rank's result."""
    trace = run_spmd(3, lambda comm: comm.rank * 10)
    assert trace.engine == "coroutine"
    assert trace.results == [0, 10, 20]


# ----------------------------------------------- scheduler: deadlock handling
def test_event_engine_structural_deadlock_is_instant():
    """No timeout involved: an unmatched receive fails as soon as the
    scheduler observes that no rank is runnable."""

    def prog(comm):
        if comm.rank == 1:
            return (yield from comm.co_recv(0, tag="never"))

    start = time.perf_counter()
    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    assert time.perf_counter() - start < 1.0
    cause = exc.value.__cause__
    assert isinstance(cause, DeadlockError)
    assert "structural deadlock" in str(cause)
    # The error reports, per blocked rank, the (source, tag) it was waiting
    # on — both in the message and as structured data.
    assert cause.blocked == {1: {"source": 0, "tag": "never"}}
    assert "rank 1 waiting for (source=0, tag='never')" in str(cause)


def test_event_engine_detects_cyclic_deadlock():
    def prog(comm):
        other = 1 - comm.rank
        return (yield from comm.co_recv(other, tag="cycle"))  # nobody sends

    start = time.perf_counter()
    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
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
        run_spmd(3, prog)
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
        run_spmd(2, prog)
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

    trace = run_spmd(2, prog)
    assert trace.ranks[0].zero_copy_sends == 0
    assert np.allclose(trace.results[1], 1.0)


# ----------------------------------------------------------- scheduler: scale
def test_event_engine_runs_paper_scale_tslu():
    """P = 256 distributed TSLU: one butterfly of log2(P) messages per rank."""
    P, b = 256, 4
    A = tall_skinny(4 * P, b, seed=1)
    start = time.perf_counter()
    res = ptslu(A, nprocs=P, machine=unit_machine())
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
    assert first.trace.ranks[0].zero_copy_sends == second.trace.ranks[0].zero_copy_sends
    assert np.array_equal(first.L, second.L)
    assert np.array_equal(first.U, second.U)  # bitwise, not just allclose


def test_coroutine_engine_counts_group_collectives():
    """Collectives over a rank group complete as ONE group-level event
    (diagnostic counter), while the charged messages/words/clocks stay those
    of point-to-point delivery."""
    A = tall_skinny(64, 8, seed=2)
    res = ptslu(A, nprocs=8, machine=unit_machine(), engine="coroutine")
    assert res.trace.total_group_collectives == 8  # one butterfly per rank
    assert fingerprint(res.trace) == REFERENCE["counts ptslu8"]


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
    """The deadlock error reports, per blocked rank, the (source, tag) or the
    collective it is stuck in."""

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

    trace = run_spmd(4, prog, engine="coroutine")
    assert trace.results == [210] * 4  # 10, then 4 * 10 + 10, then 4 * 50 + 10
    assert fingerprint(trace) == REFERENCE["back_to_back"]
    assert trace.total_group_collectives == 12  # 3 rounds x 4 ranks


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
    group evaluation computes exactly those while charging every rank each
    application it would perform itself, so the traces are those of
    point-to-point delivery with a per-rank operator."""
    assert n % b != 0  # ragged last panel
    A = randn(n, seed=n)
    rhs = randn(n, 2, seed=n + 1)
    panels = -(-n // b)

    res = pdgesv(A, rhs, p5(ProcessGrid(pr, pc), b, pivoting=pivoting))
    assert sum(host_merges) == panels * (pr - 1)
    assert solve_fingerprints(res) == REFERENCE[f"merges {n} {b} {pr} {pc} {pivoting}"]
    assert np.allclose(A @ res.x, rhs, atol=1e-9)


def test_pdgesv_group_collective_counts_on_an_8x8_grid():
    """A full P = 64 solve with 4 x 4 blocks: the group evaluation's collective
    count is exact per phase, and every rank is charged what point-to-point
    delivery charges."""
    n = 64
    A = randn(n, seed=2)
    rhs = A @ randn(n, 1, seed=3)
    res = pdgesv(A, rhs, SolveConfig.resolve(grid=(8, 8), b=4))
    assert res.factorization.trace.total_group_collectives == 2176
    assert res.trace.total_group_collectives == 1376
    assert solve_fingerprints(res) == REFERENCE["grid8"]
    assert float(np.max(np.abs(A @ res.x - rhs))) < 1e-10 * np.max(np.abs(rhs))


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

    res = run_spmd(p, prog, machine=ibm_power5(), engine="coroutine")
    assert len(sized) == 1 and sized[0] is payload
    assert res.results == [12.0] * p
    words = original(payload)
    assert res.total_words == (p - 1) * words  # p - 1 edges, each the full payload
