"""Closed-form per-rank charges of every group-level collective.

Each collective's counts and clocks are stated as formulas of the group size
``p`` and the caller's virtual position ``v = (pos - rootpos) mod p``, on a
machine with ``α = 1`` and ``β = 0`` where every clock starts at 0, so a
rank's clock is the number of message steps on its critical path.  Every cell
— p = 1..33, every root, channels ``row`` and ``col`` — asserts each rank's
messages and words sent and received, the per-channel split, the clock and
the result, and that the totals equal the models' ``tree_messages(p)`` and
``butterfly_messages(p)``.  ``bl`` is :meth:`int.bit_length`.

What the formulas do not reach is pinned as literals recorded from the
point-to-point trees these collectives are priced as: the association order
of a non-commutative operator, the clocks from non-uniform start clocks under
distinct row and column parameters, and per-rank payload copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distsim import (
    allgather,
    allreduce,
    available_engines,
    barrier,
    broadcast,
    gather,
    reduce,
    run_spmd,
    scatter,
)
from repro.distsim.engine.base import RedundantOp
from repro.kernels.flops import FlopCounter
from repro.machines import MachineModel
from repro.models.solve_model import butterfly_messages, tree_messages

SIZES = range(1, 34)
CHANNELS = ("row", "col")
W = 3  # words per contribution

#: α = 1 and β = 0 on every channel, arithmetic free.
STEPS = MachineModel(name="steps", gamma=0.0, gamma_d=0.0, alpha=1.0, beta=0.0)


def bl(x: int) -> int:
    return x.bit_length()


def maxpop(x: int) -> int:
    """Largest popcount of any integer in ``0..x``."""
    if x == 0:
        return 0
    return bl(x) if (x + 1) & x == 0 else bl(x) - 1


def tree_child_steps(v: int, p: int):
    """Steps ``2^j`` to the children of virtual rank ``v`` in the reduce tree."""
    z = (v & -v).bit_length() - 1 if v else p.bit_length()  # trailing zeros, "∞" at 0
    return [1 << j for j in range(z) if v + (1 << j) < p], z


def subtree_size(v: int, p: int) -> int:
    _, z = tree_child_steps(v, p)
    return min(1 << z, p - v)


def butterfly_shape(p: int):
    pow2 = 1 << (bl(p) - 1)
    return pow2, p - pow2, bl(pow2) - 1


def expect_broadcast(p, rootpos):
    out = []
    for pos in range(p):
        v = (pos - rootpos) % p
        sends = sum(1 for j in range(bl(v), bl(p) + 1) if v + (1 << j) < p)
        recvs = int(v > 0)
        out.append((sends, recvs, sends * W, recvs * W, bl(v) + sends))
    return out


def expect_reduce(p, rootpos, words):
    out = []
    for pos in range(p):
        v = (pos - rootpos) % p
        children, _ = tree_child_steps(v, p)
        m = subtree_size(v, p)
        sent, received = words(v, p)
        out.append((int(v > 0), len(children), sent, received, maxpop(m - 1) + int(v > 0)))
    return out


def expect_allreduce(p, words=None):
    pow2, rem, L = butterfly_shape(p)
    out = []
    for pos in range(p):
        if pos >= pow2:
            msgs, clock = (1, 1), L + 2
        else:
            n = L + int(pos < rem)
            msgs, clock = (n, n), L + int(rem > 0) + int(pos < rem)
        sent, received = words(pos, p) if words else (msgs[0] * W, msgs[1] * W)
        out.append((msgs[0], msgs[1], sent, received, clock))
    return out


def expect_scatter(p, rootpos):
    out = []
    for pos in range(p):
        if pos == rootpos:
            out.append((p - 1, 0, (p - 1) * W, 0, p - 1))
        else:
            i = pos + 1 if pos < rootpos else pos  # 1-based order among non-roots
            out.append((0, 1, 0, W, i))
    return out


def reduce_words(v, p):
    """Uniform payloads: one contribution per edge."""
    return W * (v > 0), W * len(tree_child_steps(v, p)[0])


def gather_words(v, p):
    """Dict payloads: a subtree ships every contribution it holds."""
    m = subtree_size(v, p)
    return (m * W if v > 0 else 0), (m - 1) * W


def allgather_words(pos, p):
    """Contributions held by the aligned ``k``-block at each butterfly round."""
    pow2, rem, L = butterfly_shape(p)
    if pos >= pow2:
        return W, p * W

    def block(q, k):
        base = q - q % k
        return k + min(max(rem - base, 0), k)

    rounds = [1 << j for j in range(L)]
    sent = sum(block(pos, k) for k in rounds) + (p if pos < rem else 0)
    received = sum(block(pos ^ k, k) for k in rounds) + int(pos < rem)
    return sent * W, received * W


def check(trace, expected, channel, total):
    for r, (sends, recvs, wsent, wrecv, clock) in zip(trace.ranks, expected):
        assert (r.messages_sent, r.messages_received) == (sends, recvs), r.rank
        assert (r.words_sent, r.words_received) == (wsent, wrecv), r.rank
        assert r.messages_by_channel == ({channel: sends} if sends else {}), r.rank
        assert r.words_by_channel == ({channel: float(wsent)} if sends else {}), r.rank
        assert r.clock == clock, r.rank
    assert trace.total_messages == total


def contribution(rank):
    return np.full(W, float(rank + 1))


def run(p, prog, engine):
    return run_spmd(p, prog, machine=STEPS, engine=engine)


@pytest.fixture(params=available_engines())
def engine(request):
    """Every registered engine must meet the closed forms."""
    return request.param


# ------------------------------------------------------------------ rooted
@pytest.mark.parametrize("p", SIZES)
def test_broadcast_closed_form(engine, p):
    for root in range(p):
        for channel in CHANNELS:
            def prog(comm):
                value = contribution(root) if comm.rank == root else None
                return (yield from broadcast(comm, value, root=root, channel=channel))

            trace = run(p, prog, engine)
            check(trace, expect_broadcast(p, root), channel, tree_messages(p))
            assert all(np.array_equal(x, contribution(root)) for x in trace.results)


@pytest.mark.parametrize("p", SIZES)
def test_reduce_closed_form(engine, p):
    total = sum(contribution(r) for r in range(p))
    for root in range(p):
        for channel in CHANNELS:
            def prog(comm):
                return (yield from reduce(comm, contribution(comm.rank), np.add,
                                          root=root, channel=channel))

            trace = run(p, prog, engine)
            check(trace, expect_reduce(p, root, reduce_words), channel, tree_messages(p))
            for rank, x in enumerate(trace.results):
                assert np.array_equal(x, total) if rank == root else x is None


@pytest.mark.parametrize("p", SIZES)
def test_scatter_closed_form(engine, p):
    values = [contribution(r) for r in range(p)]
    for root in range(p):
        for channel in CHANNELS:
            def prog(comm):
                mine = values if comm.rank == root else None
                return (yield from scatter(comm, mine, root=root, channel=channel))

            trace = run(p, prog, engine)
            check(trace, expect_scatter(p, root), channel, tree_messages(p))
            assert all(np.array_equal(x, values[r]) for r, x in enumerate(trace.results))


@pytest.mark.parametrize("p", SIZES)
def test_gather_closed_form(engine, p):
    values = [contribution(r) for r in range(p)]
    for root in range(p):
        for channel in CHANNELS:
            def prog(comm):
                return (yield from gather(comm, values[comm.rank], root=root,
                                          channel=channel))

            trace = run(p, prog, engine)
            check(trace, expect_reduce(p, root, gather_words), channel, tree_messages(p))
            for rank, x in enumerate(trace.results):
                if rank == root:
                    assert len(x) == p
                    assert all(np.array_equal(a, b) for a, b in zip(x, values))
                else:
                    assert x is None


# ---------------------------------------------------------------- unrooted
@pytest.mark.parametrize("p", SIZES)
def test_allreduce_closed_form(engine, p):
    total = sum(contribution(r) for r in range(p))
    for channel in CHANNELS:
        def prog(comm):
            return (yield from allreduce(comm, contribution(comm.rank), np.add,
                                         channel=channel))

        trace = run(p, prog, engine)
        check(trace, expect_allreduce(p), channel, butterfly_messages(p))
        assert all(np.array_equal(x, total) for x in trace.results)


class _CountingSum(RedundantOp):
    """Sum whose every application costs one muladd and whose epilogue one divide."""

    def combine(self, pairs):
        return [(x + y, FlopCounter(muladds=1.0)) for x, y in pairs]

    def finish(self, value):
        return value * 2.0, FlopCounter(divides=1.0)


@pytest.mark.parametrize("p", SIZES)
def test_redundant_allreduce_closed_form(engine, p):
    pow2, rem, L = butterfly_shape(p)
    total = sum(contribution(r) for r in range(p))
    for channel in CHANNELS:
        def prog(comm):
            return (yield from allreduce(comm, contribution(comm.rank),
                                         _CountingSum(comm), channel=channel))

        trace = run(p, prog, engine)
        check(trace, expect_allreduce(p), channel, butterfly_messages(p))
        for pos, r in enumerate(trace.ranks):
            combines = L + int(pos < rem) if pos < pow2 else 0
            assert (r.flops.muladds, r.flops.divides) == (combines, 1.0), pos
        assert all(np.array_equal(x, 2.0 * total) for x in trace.results)


@pytest.mark.parametrize("p", SIZES)
def test_allgather_closed_form(engine, p):
    values = [contribution(r) for r in range(p)]
    for channel in CHANNELS:
        def prog(comm):
            return (yield from allgather(comm, values[comm.rank], channel=channel))

        trace = run(p, prog, engine)
        check(trace, expect_allreduce(p, allgather_words), channel, butterfly_messages(p))
        for x in trace.results:
            assert len(x) == p
            assert all(np.array_equal(a, b) for a, b in zip(x, values))


@pytest.mark.parametrize("p", SIZES)
def test_barrier_closed_form(engine, p):
    for channel in CHANNELS:
        def prog(comm):
            return (yield from barrier(comm, channel=channel))

        trace = run(p, prog, engine)
        expected = [(s, r, s, r, c) for s, r, _, _, c in expect_allreduce(p)]
        check(trace, expected, channel, butterfly_messages(p))
        assert trace.results == [None] * p


# ------------------------------------------------------------ pinned values
@pytest.mark.parametrize("p,allreduced,reduced", [
    (5, (4, 0, 1, 2, 3), (3, 2, 1, 0, 4)),
    (6, (4, 0, 5, 1, 2, 3), (4, 3, 2, 1, 0, 5)),
])
def test_non_commutative_association_order(engine, p, allreduced, reduced):
    """Tuple concatenation: the fold, the butterfly's lower-position-first
    rule and the reduce tree's ``op(child, own)`` fix one order (the reduce
    is rooted at the last rank)."""

    def concat(a, b):
        return a + b

    def prog(comm):
        every = yield from allreduce(comm, (comm.rank,), concat)
        at_root = yield from reduce(comm, (comm.rank,), concat, root=p - 1)
        return every, at_root

    results = run(p, prog, engine).results
    assert [every for every, _ in results] == [allreduced] * p
    assert [at_root for _, at_root in results] == [None] * (p - 1) + [reduced]


#: α/β per channel, all dyadic, so every clock below is exact.
SKEWED = MachineModel(name="skewed", gamma=0.0, gamma_d=0.0, alpha=1.0, beta=0.25,
                      alpha_row=2.0, beta_col=0.5)


@pytest.mark.parametrize("p,clocks", [
    (5, [41.25, 37.75, 37.75, 37.75, 41.25]),
    (6, [49.0, 49.0, 45.0, 45.0, 49.0, 49.0]),
])
def test_clocks_from_non_uniform_start(engine, p, clocks):
    """Each rank starts late by its own amount; every kind runs on both
    channels with distinct row latency and column bandwidth."""

    def prog(comm):
        comm.advance_clock(0.75 * ((3 * comm.rank) % p))
        row = np.ones(2 + comm.rank % 2)  # ragged payloads
        yield from broadcast(comm, np.ones(4) if comm.rank == 2 else None, root=2,
                             channel="row")
        yield from reduce(comm, row, lambda a, b: a, root=4, channel="col")
        yield from allreduce(comm, row[:2], np.add, channel="row")
        yield from scatter(comm, [np.ones(r + 1) for r in range(p)] if comm.rank == 1
                           else None, root=1, channel="col")
        yield from allgather(comm, comm.rank, channel="col")
        return comm.clock

    assert run_spmd(p, prog, machine=SKEWED, engine=engine).results == clocks


def test_receivers_get_their_own_ndarray_copies(engine):
    """A receiver mutating a top-level ndarray it was sent leaves every other
    rank's copy — and the sender's — intact."""
    p = 7

    def prog(comm):
        got = yield from broadcast(comm, np.zeros(3) if comm.rank == 3 else None, root=3)
        got += comm.rank
        part = yield from scatter(comm, [np.zeros(2)] * p if comm.rank == 0 else None,
                                  root=0)
        part += comm.rank
        summed = yield from allreduce(comm, np.ones(2), np.add)
        summed += comm.rank
        yield from barrier(comm)
        return got, part, summed

    for rank, (got, part, summed) in enumerate(run_spmd(p, prog, engine=engine).results):
        assert np.array_equal(got, np.full(3, float(rank)))
        assert np.array_equal(part, np.full(2, float(rank)))
        assert np.array_equal(summed, np.full(2, float(p + rank)))
