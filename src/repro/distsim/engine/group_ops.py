"""Central evaluation of group-level collectives.

When every participant of a collective has yielded its
:class:`~repro.distsim.engine.base.CollectiveRequest`, the scheduler hands
the whole group to :func:`evaluate_collective`, which replays the *same*
communication tree the point-to-point implementation in
:mod:`repro.distsim.collectives` would walk — binomial broadcast/reduce,
fold + recursive-doubling butterfly + unfold for the all-reduce, linear
root-sends for the scatter — but as plain Python loops over the group,
charging each participant's trace directly.

The contract is **bit identity** with the point-to-point evaluation
(``engine="event"``), pinned by the parity suite.  That dictates several details mirrored
from ``collectives.py`` and ``Communicator.send``/``recv`` exactly:

* per edge, the sender records the send and advances its clock *before* the
  receiver records the receive and max-syncs with the sender's post-send
  clock (the envelope's ``available_at``);
* within one butterfly round, both partners send before either receives —
  ``sendrecv`` order — so a round's ``available_at`` values never include
  the same round's operator applications;
* operator applications use each *receiver's own* submitted closure (ops in
  this codebase charge flops through the communicator they close over) in
  the exact association order of the tree: ``op(other, own)`` for reduce and
  the fold, ``op(other, acc) if partner < me else op(acc, other)`` in the
  butterfly;
* an all-reduce whose operators are all
  :class:`~repro.distsim.engine.base.RedundantOp` evaluates each *distinct*
  application once — ``P - 1`` per all-reduce where the ranks perform
  ``P log2 P`` — and charges the returned flop count to every rank that
  would have computed it, at the point in its sequence where it would have;
* a broadcast sizes its payload once, not once per edge that carries it;
* top-level ndarray payloads are copied per edge (what ``send`` does
  defensively); tuples/dicts are shared by reference, as point-to-point
  delivery shares them.

One collective here replaces ``O(P)`` scheduler suspensions and envelope
deliveries with a single event — the vectorization that lets figure-scale
sweeps run at ``P`` in the thousands.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from .base import Communicator, RedundantOp, payload_words


def _ship(payload: Any) -> Any:
    """Per-edge payload transfer: defensive copy for top-level ndarrays only."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload


class _Edge:
    """One group position's charging state, with α/β hoisted out of the loops.

    A collective charges O(P log P) edges in tight Python loops, so the
    per-edge path avoids repeated property lookups and the
    ``message_time`` → ``latency``/``inv_bandwidth`` call chain: the
    channel-resolved α and β are constant for the collective's lifetime, and
    ``α + words·β`` is the exact expression ``MachineModel.message_time``
    evaluates, so clocks stay bit-identical.
    """

    __slots__ = ("trace", "alpha", "beta")

    def __init__(self, comm: Communicator, channel: str) -> None:
        self.trace = comm.trace
        self.alpha = comm.machine.latency(channel)
        self.beta = comm.machine.inv_bandwidth(channel)

    def charge_send(self, words: float, channel: str) -> float:
        """Record one send of ``words`` words and return its ``available_at``."""
        trace = self.trace
        trace.record_send(words, channel)
        trace.clock += self.alpha + words * self.beta
        return trace.clock

    def charge_recv(self, words: float, available_at: float) -> None:
        """Record one receive and max-sync the clock."""
        trace = self.trace
        trace.record_recv(words)
        if available_at > trace.clock:
            trace.clock = available_at


def _eval_broadcast(
    edges: Sequence[_Edge],
    values: Sequence[Any],
    rootpos: int,
    channel: str,
) -> List[Any]:
    """Binomial-tree broadcast, root re-indexed to virtual rank 0."""
    p = len(edges)
    by_v = [edges[(v + rootpos) % p] for v in range(p)]
    data: List[Any] = [None] * p  # indexed by virtual rank
    data[0] = values[rootpos]
    words = payload_words(data[0])  # every edge carries the root's value
    k = 1
    while k < p:
        for v in range(min(k, p - k)):
            avail = by_v[v].charge_send(words, channel)
            by_v[v + k].charge_recv(words, avail)
            data[v + k] = _ship(data[v])
        k *= 2
    return [data[(pos - rootpos) % p] for pos in range(p)]


def _eval_reduce(
    edges: Sequence[_Edge],
    values: Sequence[Any],
    ops: Sequence[Callable[[Any, Any], Any]],
    rootpos: int,
    channel: str,
) -> List[Any]:
    """Binomial-tree reduction to the root's position; ``None`` elsewhere."""
    p = len(edges)
    by_v = [edges[(v + rootpos) % p] for v in range(p)]
    ops_v = [ops[(v + rootpos) % p] for v in range(p)]
    acc: List[Any] = [values[(v + rootpos) % p] for v in range(p)]
    k = 1
    while k < p:
        # Virtual ranks with vrank % 2k == k each send to vrank - k, which
        # folds the contribution in with its own submitted operator.
        for v in range(k, p, 2 * k):
            dest = v - k
            words = payload_words(acc[v])
            avail = by_v[v].charge_send(words, channel)
            by_v[dest].charge_recv(words, avail)
            acc[dest] = ops_v[dest](_ship(acc[v]), acc[dest])
        k *= 2
    return [acc[0] if pos == rootpos else None for pos in range(p)]


def _eval_allreduce(
    edges: Sequence[_Edge],
    values: Sequence[Any],
    ops: Sequence[Callable[[Any, Any], Any]],
    channel: str,
) -> List[Any]:
    """Fold + recursive-doubling butterfly + unfold, by group position."""
    p = len(edges)
    pow2 = 1
    while pow2 * 2 <= p:
        pow2 *= 2
    rem = p - pow2
    # Redundant operators are interchangeable, so one of them evaluates every
    # distinct application; each rank's own operator still charges its rank.
    shared = ops[0] if all(isinstance(op, RedundantOp) for op in ops) else None

    acc: List[Any] = list(values)
    # Fold the excess ranks onto their partners below the power-of-two line.
    for me in range(pow2, p):
        words = payload_words(acc[me])
        avail = edges[me].charge_send(words, channel)
        edges[me - pow2].charge_recv(words, avail)
    if shared is None:
        for dest in range(rem):
            acc[dest] = ops[dest](_ship(acc[dest + pow2]), acc[dest])
    elif rem:
        folded = shared.combine([(acc[dest + pow2], acc[dest]) for dest in range(rem)])
        for dest, (value, flops) in enumerate(folded):
            ops[dest].charge(flops)
            acc[dest] = value

    k = 1
    while k < pow2:
        # sendrecv semantics: every rank's send (and hence its partner's
        # available_at) precedes every receive and operator of this round.
        words_sent = [payload_words(acc[me]) for me in range(pow2)]
        avails = [edges[me].charge_send(words_sent[me], channel) for me in range(pow2)]
        for me in range(pow2):
            partner = me ^ k
            edges[me].charge_recv(words_sent[partner], avails[partner])
        # Deterministic association order: lower position's contribution
        # first, exactly as the point-to-point butterfly applies it.
        if shared is None:
            payloads = [_ship(acc[me]) for me in range(pow2)]
            acc[:pow2] = [
                ops[me](payloads[me ^ k], acc[me])
                if me ^ k < me
                else ops[me](acc[me], payloads[me ^ k])
                for me in range(pow2)
            ]
        else:
            # The 2k positions of an aligned block all apply the operator to
            # (value of the lower half, value of the upper half).
            bases = range(0, pow2, 2 * k)
            merged = shared.combine([(acc[base], acc[base + k]) for base in bases])
            for base, (value, flops) in zip(bases, merged):
                for me in range(base, base + 2 * k):
                    ops[me].charge(flops)
                    acc[me] = value
        k *= 2

    # Un-fold: ship the finished result back up across the line.
    for me in range(rem):
        words = payload_words(acc[me])
        avail = edges[me].charge_send(words, channel)
        edges[me + pow2].charge_recv(words, avail)
        acc[me + pow2] = _ship(acc[me])

    if shared is not None:
        result, flops = shared.finish(acc[0])
        for op in ops:
            op.charge(flops)
        return [result] * p
    return acc


def _eval_scatter(
    edges: Sequence[_Edge],
    root_values: Sequence[Any],
    rootpos: int,
    channel: str,
) -> List[Any]:
    """Linear root-sends in group order; the root keeps its own element."""
    p = len(edges)
    results: List[Any] = [None] * p
    root = edges[rootpos]
    for pos in range(p):
        if pos == rootpos:
            continue
        words = payload_words(root_values[pos])
        avail = root.charge_send(words, channel)
        edges[pos].charge_recv(words, avail)
        results[pos] = _ship(root_values[pos])
    results[rootpos] = root_values[rootpos]
    return results


def evaluate_collective(
    comms: Sequence[Communicator],
    kind: str,
    values: Sequence[Any],
    ops: Sequence[Optional[Callable[[Any, Any], Any]]],
    rootpos: int,
    channel: str,
) -> List[Any]:
    """Evaluate one rendezvoused collective; returns per-position results.

    ``comms``/``values``/``ops`` are indexed by group position (the order of
    the collective's ``group`` list).  Every participant's
    ``group_collectives`` diagnostic counter is bumped; all other counters
    follow the point-to-point tree exactly.
    """
    edges = [_Edge(comm, channel) for comm in comms]
    for edge in edges:
        edge.trace.group_collectives += 1
    if kind == "broadcast":
        return _eval_broadcast(edges, values, rootpos, channel)
    if kind == "reduce":
        return _eval_reduce(edges, values, ops, rootpos, channel)
    if kind == "allreduce":
        return _eval_allreduce(edges, values, ops, channel)
    if kind == "scatter":
        return _eval_scatter(edges, values, rootpos, channel)
    raise ValueError(f"unknown collective kind {kind!r}")
