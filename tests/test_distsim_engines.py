"""Tests for the virtual-MPI scheduler.

One scheduler runs every SPMD program and nothing selects it; its
collectives are group-level events (:mod:`repro.distsim.engine.group_ops`).
What each collective charges is stated in closed form in
``tests/test_collectives_closed_form.py``.  The driver-level ``*_parity``
tests here compare every ``RankTrace`` field of a run against
:data:`REFERENCE`: fingerprints recorded from a point-to-point evaluation of
the same cells, which delivered every message of every collective through
``Communicator.send`` / ``co_recv``.  The scheduler's own guarantees —
bit-for-bit reproducibility, structural (instant) deadlock detection, failure
propagation, FIFO rendezvous — are tested directly (``test_scheduler_*``,
``test_coroutine_engine_*``).  ``SolveConfig.resolve(engine=...)`` still
accepts the scheduler's name, ``"coroutine"``, and rejects every other.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from repro.distsim import (
    DeadlockError,
    RankFailedError,
    SimulationError,
    allreduce,
    broadcast,
    run_spmd,
)
from repro.core.options import SolveConfig, UnknownOptionError
from repro.layouts import ProcessGrid
from repro.machines import MachineModel, ibm_power5, unit_machine
from repro.parallel import pcalu, ptslu, run_block_lu
from repro.parallel.psolve import pdgesv
from repro.randmat import randn, tall_skinny
from repro.scalapack import make_pdgetf2_panel


def p5(grid, b, **knobs):
    """The config of a run on ``grid`` with block size ``b``, priced on the POWER5."""
    return SolveConfig.resolve(grid=grid, b=b, machine="ibm_power5", **knobs)


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


# ------------------------------------------------------ no engine to select
def test_unknown_engine_error_names_offender_and_lists_registered():
    """``SolveConfig.resolve(engine=)`` takes only the scheduler's name; any
    other fails with a named error listing it, in the knobs' message shape."""
    with pytest.raises(UnknownOptionError) as exc:
        SolveConfig.resolve(engine="event")
    assert exc.value.name == "event"
    assert exc.value.available == ["coroutine"]
    assert str(exc.value) == "unknown execution engine 'event'; available: ['coroutine']"
    assert isinstance(exc.value, ValueError)


def test_unknown_engine_config_value_raises_named_error():
    for name in ("warp-drive", "event"):
        with pytest.raises(UnknownOptionError) as exc:
            SolveConfig.resolve(engine=name)
        assert exc.value.name == name
        assert "coroutine" in str(exc.value)
    assert SolveConfig.resolve(engine="coroutine") == SolveConfig.resolve()


def test_run_spmd_passes_engine_to_the_rank_program():
    """``engine=`` selects nothing: like any keyword, it reaches every rank."""
    trace = run_spmd(2, lambda comm, engine: (comm.rank, engine), engine="event")
    assert trace.results == [(0, "event"), (1, "event")]


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
        g = yield from allreduce(comm, {comm.rank: comm.rank * 2},
                                 lambda a, b: {**b, **a})
        return (v, float(np.sum(w)), [g[r] for r in sorted(g)])

    trace = run_spmd(p, prog, machine=machine)
    assert fingerprint(trace) == REFERENCE[f"collective_program {p}"]
    assert trace.results == [(p * (p + 1) // 2, 15.0, list(range(0, 2 * p, 2)))] * p
    assert trace.total_group_collectives == 3 * p


@pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
def test_ptslu_parity(nprocs, scheduler):
    A = tall_skinny(64, 8, seed=nprocs)
    res = ptslu(A, nprocs=nprocs, machine=ibm_power5())
    assert fingerprint(res.trace) == REFERENCE[f"ptslu {nprocs}"]
    assert_lu(A, res)


@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(16, 4, 2, 2), (32, 8, 2, 2), (36, 6, 2, 3)],
)
def test_pcalu_parity(n, b, pr, pc, scheduler):
    A = randn(n, seed=n + b)
    res = pcalu(A, p5(ProcessGrid(pr, pc), b))
    assert fingerprint(res.trace) == REFERENCE[f"pcalu {n} {b} {pr} {pc}"]
    assert_lu(A, res)


def test_pdgetrf_parity(scheduler):
    A = randn(32, seed=3)
    res = pcalu(A, p5(ProcessGrid(2, 2), 8, pivoting="pp"))
    assert fingerprint(res.trace) == REFERENCE["pdgetrf"]
    assert_lu(A, res)


def test_pdgesv_parity(scheduler):
    """End-to-end solve: factorization, triangular solves and refinement
    charge every rank what point-to-point delivery charges."""
    n = 24
    A = randn(n, seed=41)
    b = randn(n, 2, seed=42)
    res = pdgesv(A, b, p5(ProcessGrid(2, 2), 8))
    assert solve_fingerprints(res) == REFERENCE["pdgesv"]
    assert np.allclose(A @ res.x, b, atol=1e-9)
    assert len(res.residual_norms) == len(res.backward_errors) == res.iterations + 1


# ------------------------------------------- ragged panels + pivoting knob
@pytest.mark.parametrize(
    "n,b,pr,pc",
    [(22, 8, 2, 2), (21, 8, 2, 2), (26, 8, 2, 3), (23, 8, 3, 2)],
)
def test_pcalu_ragged_edge_parity(n, b, pr, pc, scheduler):
    """n % block_size != 0 (and non-power-of-two grids): the fringe panel
    is charged as under point-to-point delivery and still factors correctly."""
    A = randn(n, seed=100 + n)
    res = pcalu(A, p5(ProcessGrid(pr, pc), b))
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
def test_pcalu_pivoting_knob_parity_across_engines(strategy, scheduler):
    """Every pivoting strategy, on a ragged (n=22, b=8) 2x2 problem."""
    A = randn(22, seed=7)
    res = pcalu(A, p5(ProcessGrid(2, 2), 8, pivoting=strategy))
    assert fingerprint(res.trace) == REFERENCE[f"pcalu knob {strategy}"]
    assert_lu(A, res)


@pytest.mark.parametrize("strategy", ["pp", "ca", "ca_prrp"])
def test_ptslu_pivoting_knob_parity_across_engines(strategy, scheduler):
    A = tall_skinny(52, 8, seed=3)  # 52 rows over 4 ranks: uneven blocks
    res = ptslu(A, nprocs=4, machine=ibm_power5(), pivoting=strategy)
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
def test_scheduler_runs_plain_rank_functions():
    """A rank program with no suspension point need not be a generator — its
    return value is the rank's result."""
    trace = run_spmd(3, lambda comm: comm.rank * 10)
    assert trace.results == [0, 10, 20]


# ----------------------------------------------- scheduler: deadlock handling
def test_scheduler_structural_deadlock_is_instant():
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
    assert list(exc.value.failures) == [1]
    assert exc.value.rank == 1 and exc.value.tag == "never"
    assert str(exc.value).startswith("rank 1 failed after 'never': DeadlockError: ")


def test_scheduler_detects_cyclic_deadlock():
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
    # One failure, charged to the lowest blocked rank.
    assert list(exc.value.failures) == [0] and exc.value.failures[0] is cause


def test_scheduler_rank_exception_propagates():
    def prog(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        return comm.rank

    with pytest.raises(RankFailedError) as exc:
        run_spmd(3, prog)
    assert isinstance(exc.value.__cause__, ValueError)


def test_scheduler_peer_failure_fails_blocked_ranks_fast():
    """A crashed peer ends the run at once: the rank that would wait on it is
    closed, not left to hang or to fail with a secondary DeadlockError."""

    def prog(comm):
        if comm.rank == 0:
            raise RuntimeError("crashed before sending")
        return (yield from comm.co_recv(0, tag="x"))

    start = time.perf_counter()
    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    assert time.perf_counter() - start < 1.0
    assert list(exc.value.failures) == [0]
    assert exc.value.rank == 0 and exc.value.tag is None
    assert isinstance(exc.value.__cause__, RuntimeError)
    assert exc.value.failures[0] is exc.value.__cause__
    assert str(exc.value) == "rank 0 failed: RuntimeError: crashed before sending"


def test_scheduler_first_failure_steps_no_other_rank():
    """Rank 0 fails at clock 0; rank 1, runnable at the same clock, is never
    stepped."""
    progress = []

    def prog(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        progress.append(comm.rank)
        yield from comm.co_recv(0, tag="never-sent")

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    assert list(exc.value.failures) == [0]
    assert progress == []


def test_scheduler_first_failure_closes_suspended_peers():
    """A peer suspended in ``co_recv`` is closed, so its ``finally`` runs;
    the error names the failing rank and the tag it last yielded."""
    closed = []

    def prog(comm):
        if comm.rank == 0:
            yield from comm.co_recv(1, tag="hello")
            raise ValueError("boom")
        comm.send(0, 1.0, tag="hello")
        try:
            yield from comm.co_recv(0, tag="x")
        finally:
            closed.append(comm.rank)

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    assert closed == [1]
    assert list(exc.value.failures) == [0]
    assert exc.value.rank == 0 and exc.value.tag == "hello"
    assert str(exc.value) == "rank 0 failed after 'hello': ValueError: boom"


def test_scheduler_unknown_request_fails_the_run():
    """A rank yielding something that is no request fails the run as a
    SimulationError naming that rank."""

    def prog(comm):
        if comm.rank == 1:
            yield object()
        return comm.rank

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    cause = exc.value.__cause__
    assert type(cause) is SimulationError
    assert "rank 1 yielded an unknown request" in str(cause)
    assert list(exc.value.failures) == [1] and exc.value.rank == 1


# ------------------------------------------------------- aliasing safety
def test_scheduler_still_copies_aliased_payloads():
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
def test_scheduler_runs_paper_scale_tslu():
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
    first = pcalu(A, p5(grid, 8))
    second = pcalu(A, p5(grid, 8))
    assert_traces_identical(first.trace, second.trace)
    assert first.trace.ranks[0].zero_copy_sends == second.trace.ranks[0].zero_copy_sends
    assert np.array_equal(first.L, second.L)
    assert np.array_equal(first.U, second.U)  # bitwise, not just allclose


def test_coroutine_engine_counts_group_collectives():
    """Collectives over a rank group complete as ONE group-level event
    (diagnostic counter), while the charged messages/words/clocks stay those
    of point-to-point delivery."""
    A = tall_skinny(64, 8, seed=2)
    res = ptslu(A, nprocs=8, machine=unit_machine())
    assert res.trace.total_group_collectives == 8  # one butterfly per rank
    assert fingerprint(res.trace) == REFERENCE["counts ptslu8"]


def test_coroutine_engine_runs_generator_rank_functions_natively():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(4.0) * 3.0, tag="x")
            return "sent"
        got = yield from comm.co_recv(0, tag="x")
        return float(np.sum(got))

    trace = run_spmd(2, prog)
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
        run_spmd(3, prog)
    assert time.perf_counter() - start < 1.0
    cause = exc.value.__cause__
    assert isinstance(cause, DeadlockError)
    assert cause.blocked[0]["collective"] == "allreduce"
    assert cause.blocked[0]["tag"] == "lonely"
    assert cause.blocked[0]["group"] == (0, 1)
    assert cause.blocked[1] == {"source": 2, "tag": "ghost"}
    assert "waiting in collective" in str(cause)
    assert "rank 1 waiting for (source=2, tag='ghost')" in str(cause)


def test_scheduler_collective_operator_failure_fails_the_run():
    """An operator the host evaluates for a collective fails the run like a
    rank would: charged to the rank whose arrival completed the collective."""

    def bad_op(a, b):
        raise ValueError("bad operator")

    def prog(comm):
        return (yield from allreduce(comm, comm.rank, bad_op, tag="t"))

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    assert isinstance(exc.value.__cause__, ValueError)
    assert list(exc.value.failures) == [1]
    assert str(exc.value) == "rank 1 failed after 't': ValueError: bad operator"


def test_coroutine_engine_rank_exception_propagates():
    def prog(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        return (yield from comm.co_recv(0, tag="never-sent"))

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    # The one failure is the crash; rank 1 is closed, not deadlocked.
    assert isinstance(exc.value.__cause__, ValueError)
    assert list(exc.value.failures) == [0]


def test_coroutine_engine_back_to_back_same_tag_collectives():
    """Repeated collectives with identical (kind, group, tag, channel) keys
    must rendezvous in FIFO order, not collapse into one event."""

    def prog(comm):
        total = 0
        for _ in range(3):
            total = yield from allreduce(comm, total + comm.rank + 1,
                                         lambda a, b: a + b, tag="same")
        return total

    trace = run_spmd(4, prog)
    assert trace.results == [210] * 4  # 10, then 4 * 10 + 10, then 4 * 50 + 10
    assert fingerprint(trace) == REFERENCE["back_to_back"]
    assert trace.total_group_collectives == 12  # 3 rounds x 4 ranks


def test_coroutine_engine_runs_large_p_tslu():
    """P = 2048 TSLU on one host thread in seconds."""
    P, b = 2048, 2
    A = tall_skinny(2 * P, b, seed=1)
    start = time.perf_counter()
    res = ptslu(A, nprocs=P, machine=unit_machine())
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

    res = run_spmd(p, prog, machine=ibm_power5())
    assert len(sized) == 1 and sized[0] is payload
    assert res.results == [12.0] * p
    words = original(payload)
    assert res.total_words == (p - 1) * words  # p - 1 edges, each the full payload


# ------------------------------------------------------------------ step ops
def test_step_op_runs_its_evaluator_once_and_resumes_each_member_with_its_own():
    """A step op is one host call over the group: the evaluator sees every
    member's value in group order, and each member gets its own result."""
    from repro.distsim import step

    calls = []

    def evaluator(group, values):
        calls.append(([comm.rank for comm in group.comms], list(values)))
        return [v * 10 for v in values]

    def prog(comm):
        return (yield from step(comm, comm.rank + 1, evaluator, tag="s"))

    res = run_spmd(4, prog)
    assert calls == [([0, 1, 2, 3], [1, 2, 3, 4])]
    assert res.results == [10, 20, 30, 40]
    assert all(r.group_collectives == 0 and r.messages_sent == 0 for r in res.ranks)


def test_step_op_over_one_member_runs_inline():
    """A one-member step op never reaches the scheduler: each rank runs the
    evaluator itself, sends nothing and bumps no counter."""
    from repro.distsim import step

    calls = []

    def evaluator(group, values):
        calls.append(group.comms[0].rank)
        return [values[0] + 1]

    def prog(comm):
        x = yield from step(comm, comm.rank, evaluator, group=[comm.rank])
        return x

    res = run_spmd(3, prog)
    assert sorted(calls) == [0, 1, 2]
    assert res.results == [1, 2, 3]
    assert all(r.group_collectives == 0 for r in res.ranks)


def test_step_op_charges_exactly_what_its_collectives_charge_as_rank_programs():
    """The inner collectives of a step op are the rank programs' trees: the
    same charges, clocks and results, and ``group_collectives`` counts only
    them (a one-member inner collective counts nothing)."""
    from repro.distsim import reduce, step

    def add(comm):
        def op(a, b):
            comm.charge_flops(muladds=float(a.size))
            return a + b
        return op

    def evaluator(group, values):
        for r, comm in enumerate(group.comms):
            comm.charge_flops(muladds=3.0 * (r + 1))
        total = group.collective("reduce", range(4), values, [add(c) for c in group.comms],
                                 root=2, tag="red", channel="row")[2]
        got = group.collective("broadcast", (2, 0, 3), [total] * 3, root=2, tag="bc",
                               channel="col")
        alone = group.collective("broadcast", (1,), [values[1]], root=1, tag="solo")
        return [got[(2, 0, 3).index(r)] if r != 1 else alone[0] for r in range(4)]

    def stepped(comm):
        return (yield from step(comm, np.full(3, comm.rank + 1.0), evaluator, tag="s"))

    def direct(comm):
        comm.charge_flops(muladds=3.0 * (comm.rank + 1))
        mine = np.full(3, comm.rank + 1.0)
        total = yield from reduce(comm, mine, add(comm), root=2, group=range(4),
                                  tag="red", channel="row")
        if comm.rank == 1:
            return (yield from broadcast(comm, mine, root=1, group=(1,), tag="solo"))
        return (yield from broadcast(comm, total, root=2, group=(2, 0, 3), tag="bc",
                                     channel="col"))

    a = run_spmd(4, stepped, machine=ibm_power5())
    b = run_spmd(4, direct, machine=ibm_power5())
    assert fingerprint(a) == fingerprint(b)
    assert [r.clock.hex() for r in a.ranks] == [r.clock.hex() for r in b.ranks]
    assert [r.group_collectives for r in a.ranks] == [2, 1, 2, 2]
    assert [r.group_collectives for r in b.ranks] == [2, 1, 2, 2]
    for x, y in zip(a.results, b.results):
        np.testing.assert_array_equal(x, y)


def test_step_op_failure_names_the_member_and_its_inner_tag():
    """An evaluator's failure is one ``RankFailedError`` for the member the
    evaluator names — not the member whose arrival completed the step —
    after the last inner collective that member took part in; a member with
    no inner collective yet names the tag it had before the step."""
    from repro.distsim import step

    def evaluator(group, values):
        group.collective("broadcast", (1, 2), [None, "x"], root=2, tag="inner")
        failing = values.index("fail")
        try:
            raise ValueError("boom")
        except ValueError as exc:
            raise group.failure(failing, exc) from exc

    def prog(comm, failing):
        yield from broadcast(comm, 0, root=0, tag="before")
        return (yield from step(comm, "fail" if comm.rank == failing else "ok",
                                evaluator, tag="s"))

    for failing, tag in [(2, "inner"), (3, "before")]:
        with pytest.raises(RankFailedError) as exc:
            run_spmd(4, prog, failing)
        err = exc.value
        assert list(err.failures) == [failing] and err.rank == failing
        assert isinstance(err.__cause__, ValueError)
        assert str(err) == f"rank {failing} failed after {tag!r}: ValueError: boom"


def test_collective_kinds_are_four_and_an_unknown_kind_fails_the_run():
    """Broadcast, reduce, all-reduce and step are the collective kinds; a rank
    yielding any other (here the deleted ``"scatter"``, with one value per
    member) ends the run with one ``RankFailedError``, not a hang."""
    from repro.distsim.engine.base import CollectiveRequest

    def prog(comm):
        return (yield CollectiveRequest(kind="scatter", group=range(3), pos=comm.rank,
                                        rootpos=0, value=[0, 1, 2], op=None,
                                        tag="s", channel="any"))

    with pytest.raises(RankFailedError) as exc:
        run_spmd(3, prog)
    err = exc.value
    assert len(err.failures) == 1 and err.tag == "s"
    assert isinstance(err.__cause__, ValueError)
    assert str(err.__cause__) == "unknown collective kind 'scatter'"
