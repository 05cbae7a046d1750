"""Unit tests for the virtual MPI runtime and its collectives."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.distsim import (
    DeadlockError,
    RankFailedError,
    allreduce,
    broadcast,
    payload_words,
    reduce,
    run_spmd,
)
from repro.machines import MachineModel, unit_machine


def _merge(a: dict, b: dict) -> dict:
    """Union of two one-entry-per-rank dicts: gathers are reductions of these."""
    return {**b, **a}


def _scatter(comm, values, root):
    """Root-sends of ``values[r]`` to each rank ``r`` (significant on ``root``)."""
    if comm.rank != root:
        return (yield from comm.co_recv(root, tag="scatter"))
    for dest in range(comm.size):
        if dest != root:
            comm.send(dest, values[dest], tag="scatter")
    return values[root]


# ----------------------------------------------------------------- basic p2p
def test_send_recv_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(5.0), tag="x")
            return None
        return (yield from comm.co_recv(0, tag="x"))

    trace = run_spmd(2, prog)
    assert np.allclose(trace.results[1], np.arange(5.0))
    assert trace.ranks[0].messages_sent == 1
    assert trace.ranks[1].messages_received == 1


def test_send_copies_numpy_payload():
    def prog(comm):
        if comm.rank == 0:
            data = np.ones(3)
            comm.send(1, data, tag=0)
            data[:] = -1  # mutate after send; receiver must not see it
            return None
        return (yield from comm.co_recv(0, tag=0))

    trace = run_spmd(2, prog)
    assert np.allclose(trace.results[1], 1.0)
    assert trace.ranks[0].zero_copy_sends == 0


def test_out_of_order_tags_are_matched():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, "first", tag="a")
            comm.send(1, "second", tag="b")
            return None
        second = yield from comm.co_recv(0, tag="b")
        first = yield from comm.co_recv(0, tag="a")
        return (first, second)

    trace = run_spmd(2, prog)
    assert trace.results[1] == ("first", "second")


def test_deadlock_detection():
    def prog(comm):
        if comm.rank == 1:
            return (yield from comm.co_recv(0, tag="never"))
        return None

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    assert isinstance(exc.value.__cause__, DeadlockError)


def test_rank_exception_propagates():
    def prog(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        return comm.rank

    with pytest.raises(RankFailedError):
        run_spmd(2, prog)


def test_self_send_rejected():
    def prog(comm):
        comm.send(comm.rank, 1)

    with pytest.raises(RankFailedError):
        run_spmd(1, prog)


def test_single_rank_run():
    trace = run_spmd(1, lambda comm: comm.rank * 10)
    assert trace.results == [0]


# ----------------------------------------------------------------- accounting
def test_clock_advances_with_latency_and_flops():
    machine = MachineModel(name="t", gamma=1.0, gamma_d=2.0, alpha=10.0, beta=0.5)

    def prog(comm):
        comm.charge_flops(muladds=3, divides=1)
        if comm.rank == 0:
            comm.send(1, np.zeros(4), tag=0)
        else:
            yield from comm.co_recv(0, tag=0)
        return comm.clock

    trace = run_spmd(2, prog, machine=machine)
    # Rank 0: 3*1 + 1*2 compute, + alpha + 4*beta send = 5 + 12 = 17.
    assert trace.results[0] == pytest.approx(17.0)
    # Rank 1 clock >= message availability time.
    assert trace.results[1] >= 17.0


def test_payload_words_estimates():
    assert payload_words(np.zeros(10)) == 10
    assert payload_words(3) == 1
    assert payload_words((np.zeros(4), np.zeros(2))) == 6
    assert payload_words({"a": np.zeros(3)}) == 3
    assert payload_words(None) == 1


def test_payload_words_empty_arrays_and_dtypes():
    assert payload_words(np.zeros(0)) == 0.0
    assert payload_words(np.zeros((0, 5))) == 0.0
    # Non-8-byte dtypes count their actual storage.
    assert payload_words(np.zeros(10, dtype=np.float32)) == 5.0
    assert payload_words(np.zeros(4, dtype=np.int64)) == 4.0


def test_payload_words_empty_containers_count_control_overhead():
    # An empty container still costs one control word on the wire.
    assert payload_words(()) == 1.0
    assert payload_words([]) == 1.0
    assert payload_words({}) == 1.0


def test_payload_words_nested_containers():
    nested = {"swaps": [(1, 2), (3, 4)], "panel": np.zeros((2, 3))}
    # Each (int, int) tuple = 2 words; the 2x3 array = 6 words.
    assert payload_words(nested) == 2 + 2 + 6
    assert payload_words([[np.zeros(2)], {"x": 1.0}]) == 3.0


def test_payload_words_strings():
    assert payload_words("") == 1.0
    assert payload_words("short") == 1.0  # less than one word, rounded up
    assert payload_words("x" * 8) == 1.0
    assert payload_words("x" * 20) == 2.5


def test_comparisons_priced_into_simulated_clock():
    """charge_flops(comparisons=...) advances time at γ_cmp (default γ)."""
    machine = MachineModel(name="t", gamma=2.0, gamma_d=5.0, alpha=0.0, beta=0.0)

    def prog(comm):
        comm.charge_flops(comparisons=7)
        return comm.clock

    assert run_spmd(1, prog, machine=machine).results[0] == pytest.approx(14.0)

    explicit = replace(machine, gamma_cmp=0.5)

    def prog2(comm):
        comm.charge_flops(muladds=1, comparisons=4)
        return comm.clock

    assert run_spmd(1, prog2, machine=explicit).results[0] == pytest.approx(4.0)


def test_machine_compute_time_comparison_term():
    m = MachineModel(name="t", gamma=3.0, gamma_d=10.0, alpha=1.0, beta=0.0)
    assert m.comparison_time() == 3.0
    assert m.compute_time(2.0, 1.0) == pytest.approx(16.0)  # 2-arg form unchanged
    assert m.compute_time(0.0, 0.0, comparisons=5.0) == pytest.approx(15.0)
    m2 = replace(m, gamma_cmp=0.25)
    assert m2.comparison_time() == 0.25
    assert m2.compute_time(1.0, 0.0, 4.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        MachineModel(name="bad", gamma=1.0, gamma_d=1.0, alpha=1.0, beta=1.0,
                     gamma_cmp=-1.0)


def test_channel_split_is_recorded():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, 1.0, tag=0, channel="row")
            comm.send(1, 1.0, tag=1, channel="col")
        else:
            yield from comm.co_recv(0, tag=0)
            yield from comm.co_recv(0, tag=1)

    trace = run_spmd(2, prog)
    assert trace.messages_by_channel("row") == 1
    assert trace.messages_by_channel("col") == 1


# ---------------------------------------------------------------- collectives
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
def test_broadcast_delivers_to_all(p):
    def prog(comm):
        value = {"data": 42} if comm.rank == 0 else None
        return (yield from broadcast(comm, value, root=0))

    trace = run_spmd(p, prog)
    assert all(r == {"data": 42} for r in trace.results)


@pytest.mark.parametrize("p", [2, 4, 7])
def test_broadcast_from_nonzero_root(p):
    root = p - 1

    def prog(comm):
        value = "hello" if comm.rank == root else None
        return (yield from broadcast(comm, value, root=root))

    trace = run_spmd(p, prog)
    assert all(r == "hello" for r in trace.results)


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_reduce_sum(p):
    def prog(comm):
        return (yield from reduce(comm, comm.rank + 1, lambda a, b: a + b, root=0))

    trace = run_spmd(p, prog)
    assert trace.results[0] == p * (p + 1) // 2
    assert all(r is None for r in trace.results[1:])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
def test_allreduce_sum_everyone_gets_result(p):
    def prog(comm):
        return (yield from allreduce(comm, comm.rank + 1, lambda a, b: a + b))

    trace = run_spmd(p, prog)
    assert all(r == p * (p + 1) // 2 for r in trace.results)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_allreduce_message_count_is_logarithmic(p):
    """Power-of-two all-reduce: each rank sends exactly log2(P) messages."""
    import math

    def prog(comm):
        yield from allreduce(comm, 1.0, lambda a, b: a + b)

    trace = run_spmd(p, prog, machine=unit_machine())
    assert trace.max_messages == math.log2(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gather_and_allgather(p):
    """A gather and an all-gather: a reduce and an all-reduce of one-entry dicts."""

    def prog(comm):
        mine = {comm.rank: comm.rank * 2}
        return (
            (yield from reduce(comm, mine, _merge, root=0)),
            (yield from allreduce(comm, mine, _merge)),
        )

    trace = run_spmd(p, prog)
    expected = {i: 2 * i for i in range(p)}
    assert trace.results[0][0] == expected
    assert all(r[1] == expected for r in trace.results)


@pytest.mark.parametrize("p", [2, 4, 5])
def test_scatter(p):
    def prog(comm):
        values = [f"item{i}" for i in range(p)] if comm.rank == 0 else None
        return (yield from _scatter(comm, values, root=0))

    trace = run_spmd(p, prog)
    assert trace.results == [f"item{i}" for i in range(p)]


def test_barrier_completes():
    """A barrier is an all-reduce of nothing."""

    def prog(comm):
        yield from allreduce(comm, 0, lambda a, b: 0)
        return True

    assert all(run_spmd(4, prog).results)


def test_collective_over_subgroup():
    """Only the group's ranks participate; others are untouched."""

    def prog(comm):
        group = [1, 3]
        if comm.rank in group:
            return (yield from allreduce(comm, comm.rank, lambda a, b: a + b, group=group, tag="sub"))
        return None

    trace = run_spmd(4, prog)
    assert trace.results[1] == 4 and trace.results[3] == 4
    assert trace.results[0] is None and trace.results[2] is None


def test_collective_wrong_group_raises():
    def prog(comm):
        return (yield from broadcast(comm, 1, root=0, group=[0]))

    with pytest.raises(RankFailedError):
        run_spmd(2, prog)


@pytest.mark.parametrize("name", ["broadcast", "reduce"])
def test_rooted_collective_rejects_root_outside_group(name):
    """A root outside the group must fail up front with a diagnosable message
    naming the collective, the root and the group — not a bare list.index
    ValueError from the middle of the tree."""

    def prog(comm):
        group = [0, 1]
        if name == "broadcast":
            return (yield from broadcast(comm, 1, root=3, group=group))
        return (yield from reduce(comm, 1, lambda a, b: a + b, root=3, group=group))

    with pytest.raises(RankFailedError) as excinfo:
        run_spmd(2, prog)
    cause = excinfo.value.__cause__
    assert isinstance(cause, ValueError)
    assert f"{name}: root rank 3 is not a member of group [0, 1]" in str(cause)


def test_broadcast_singleton_group_still_validates_root():
    """The p == 1 early return must not skip the root-membership check."""
    def prog(comm):
        return (yield from broadcast(comm, 1, root=1, group=[0]))

    with pytest.raises(RankFailedError):
        run_spmd(1, prog)


def test_nonassociative_order_is_deterministic():
    """allreduce applies the operator in group order (checked via string concat)."""

    def prog(comm):
        return (yield from allreduce(comm, str(comm.rank), lambda a, b: a + b))

    trace = run_spmd(4, prog)
    assert all(r == "0123" for r in trace.results)


# ------------------------------------------- non-power-of-two group coverage
@pytest.mark.parametrize("p", [3, 5, 6, 7])
def test_all_collectives_non_power_of_two(p):
    """Every collective delivers correct values on P = 3, 5, 6, 7."""
    root = p - 1

    def prog(comm):
        bcast = yield from broadcast(comm, "payload" if comm.rank == root else None, root=root)
        red = yield from reduce(comm, comm.rank + 1, lambda a, b: a + b, root=root, tag="r")
        allred = yield from allreduce(comm, comm.rank + 1, lambda a, b: a + b, tag="ar")
        mine = {comm.rank: comm.rank ** 2}
        gathered = yield from reduce(comm, mine, _merge, root=root, tag="g")
        allgathered = yield from allreduce(comm, mine, _merge, tag="ag")
        values = [10 * i for i in range(p)] if comm.rank == root else None
        scattered = yield from _scatter(comm, values, root=root)
        yield from allreduce(comm, 0, lambda a, b: 0, tag="b")
        return (bcast, red, allred, gathered, allgathered, scattered)

    trace = run_spmd(p, prog)
    total = p * (p + 1) // 2
    squares = {i: i ** 2 for i in range(p)}
    for rank, (bcast, red, allred, gathered, allgathered, scattered) in enumerate(
        trace.results
    ):
        assert bcast == "payload"
        assert red == (total if rank == root else None)
        assert allred == total
        assert gathered == (squares if rank == root else None)
        assert allgathered == squares
        assert scattered == 10 * rank


@pytest.mark.parametrize("p", [3, 5, 6, 7])
def test_allreduce_non_power_of_two_message_depth(p):
    """Fold + butterfly + unfold: at most ceil(log2 p) + 1 sends per rank."""
    import math

    def prog(comm):
        yield from allreduce(comm, 1.0, lambda a, b: a + b)

    trace = run_spmd(p, prog, machine=unit_machine())
    assert trace.max_messages <= math.ceil(math.log2(p)) + 1


@pytest.mark.parametrize("p", [3, 5, 6, 7])
def test_allreduce_consistent_non_power_of_two(p):
    """With a non-commutative operator every rank still agrees on one result
    containing each contribution exactly once (fold order is fixed, so the
    value is also stable across runs)."""

    def prog(comm):
        return (yield from allreduce(comm, str(comm.rank), lambda a, b: a + b))

    first = run_spmd(p, prog)
    second = run_spmd(p, prog)
    value = first.results[0]
    assert all(r == value for r in first.results)
    assert all(r == value for r in second.results)
    assert sorted(value) == [str(i) for i in range(p)]
