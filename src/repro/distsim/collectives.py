"""Collective operations built from point-to-point messages.

ScaLAPACK's drivers and CALU both rely on broadcasts, reductions and
all-reductions along rows and columns of the process grid.  The paper's model
prices each collective over ``P`` processes as ``log2(P)`` communication
steps; the implementations below use binomial trees (broadcast, reduce,
gather, scatter) and a recursive-doubling butterfly (all-reduce / all-gather),
which have exactly that depth, so the simulated critical path matches the
model's assumption.

All collectives operate over an explicit *group*: an ordered list of world
ranks.  This is how "the column of the grid holding block-column j" or "the
process row holding block-row j" are expressed.  Every rank in the group must
call the collective with the same group (same order); other ranks must not.

Each collective is a generator function for use inside rank programs
(``value = yield from broadcast(comm, ...)``).  With
``comm.group_collectives`` (the default engine), a collective yields one
group-level :class:`~repro.distsim.engine.base.CollectiveRequest` instead of
walking its point-to-point tree; the scheduler evaluates the same tree
centrally (:mod:`repro.distsim.engine.group_ops`) with bit-identical per-rank
cost attribution, so traces match either way.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from .engine.base import CollectiveRequest, RedundantOp
from .vmpi import Communicator


def _norm_group(comm: Communicator, group: Optional[Sequence[int]]) -> Sequence[int]:
    """Canonical group form: ``range`` for the whole world, tuple otherwise.

    The default all-ranks group is kept as a ``range`` object because every
    participant of a group-level collective hashes and position-indexes its
    group — with a materialized list that is O(P) per rank, O(P²) per
    collective, which dominates whole-world collectives at large P.  A
    ``range`` hashes, compares and ``index``-es in O(1).
    """
    if group is None:
        return range(comm.size)
    if isinstance(group, range):
        return group
    return tuple(group)


def _position(comm: Communicator, group: Sequence[int]) -> int:
    try:
        return group.index(comm.rank)
    except ValueError as exc:
        raise ValueError(
            f"rank {comm.rank} called a collective for group {list(group)} "
            "it does not belong to"
        ) from exc


def _root_position(name: str, root: int, group: Sequence[int]) -> int:
    """Position of ``root`` in ``group``, validated up front.

    A rooted collective whose root is outside the group would otherwise die
    on a bare ``index`` ValueError somewhere mid-tree — this raises a
    diagnosable error naming the collective, the root and the group instead.
    """
    try:
        return group.index(root)
    except ValueError:
        raise ValueError(
            f"{name}: root rank {root} is not a member of group {list(group)}"
        ) from None


def broadcast(
    comm: Communicator,
    value: Any,
    root: int,
    group: Optional[Sequence[int]] = None,
    tag: Any = "bcast",
    channel: str = "any",
) -> Any:
    """Binomial-tree broadcast of ``value`` from ``root`` to every rank of ``group``.

    Parameters
    ----------
    comm:
        The calling rank's communicator.
    value:
        The payload (significant only on ``root``).
    root:
        World rank of the source.
    group:
        Ordered list of participating world ranks; defaults to all ranks.
    tag:
        Tag namespace for this collective (use distinct tags for concurrent
        collectives on overlapping groups).
    channel:
        Cost channel ("row", "col", "any").

    Returns
    -------
    The broadcast value on every rank of the group.
    """
    group = _norm_group(comm, group)
    p = len(group)
    me = _position(comm, group)
    rootpos = _root_position("broadcast", root, group)
    if p == 1:
        return value
    if comm.group_collectives:
        return (
            yield CollectiveRequest(
                kind="broadcast",
                group=group,
                pos=me,
                rootpos=rootpos,
                value=value,
                op=None,
                tag=tag,
                channel=channel,
            )
        )
    # Re-index so the root is position 0.
    vrank = (me - rootpos) % p

    # Binomial tree: in round k, ranks with vrank < 2**k that have the data
    # send it to vrank + 2**k.
    received = value if vrank == 0 else None
    k = 1
    while k < p:
        if vrank < k and vrank + k < p:
            dest = group[(vrank + k + rootpos) % p]
            comm.send(dest, received, tag=(tag, k), channel=channel)
        elif k <= vrank < 2 * k:
            src = group[(vrank - k + rootpos) % p]
            received = yield from comm.co_recv(src, tag=(tag, k))
        k *= 2
    return received


def reduce(
    comm: Communicator,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int,
    group: Optional[Sequence[int]] = None,
    tag: Any = "reduce",
    channel: str = "any",
) -> Optional[Any]:
    """Binomial-tree reduction to ``root`` with the associative operator ``op``.

    Returns the reduced value on ``root`` and ``None`` elsewhere.  ``op`` is
    applied as ``op(partial_from_child, own_partial)``; for commutative
    operators the order is irrelevant.
    """
    group = _norm_group(comm, group)
    p = len(group)
    me = _position(comm, group)
    rootpos = _root_position("reduce", root, group)
    if comm.group_collectives and p > 1:
        return (
            yield CollectiveRequest(
                kind="reduce",
                group=group,
                pos=me,
                rootpos=rootpos,
                value=value,
                op=op,
                tag=tag,
                channel=channel,
            )
        )
    vrank = (me - rootpos) % p

    acc = value
    k = 1
    while k < p:
        if vrank % (2 * k) == 0:
            partner = vrank + k
            if partner < p:
                src = group[(partner + rootpos) % p]
                other = yield from comm.co_recv(src, tag=(tag, k))
                acc = op(other, acc)
        elif vrank % (2 * k) == k:
            dest = group[(vrank - k + rootpos) % p]
            comm.send(dest, acc, tag=(tag, k), channel=channel)
            return None if comm.rank != root else acc
        k *= 2
    return acc if comm.rank == root else None


def allreduce(
    comm: Communicator,
    value: Any,
    op: Callable[[Any, Any], Any],
    group: Optional[Sequence[int]] = None,
    tag: Any = "allreduce",
    channel: str = "any",
) -> Any:
    """Butterfly (recursive-doubling) all-reduction.

    Every rank of the group obtains ``op`` applied over all contributions in
    ``log2(P)`` pairwise-exchange steps.  This is the communication pattern of
    TSLU itself (with ``op`` = "Gaussian elimination of two stacked b x b
    blocks"), so the same routine is reused there.

    For non-power-of-two groups the routine folds the excess ranks into the
    nearest power of two first (one extra step), as standard MPI
    implementations do.

    With a :class:`~repro.distsim.engine.base.RedundantOp` every rank gets
    ``op.finish(reduced)``, charged to it.  Here each rank evaluates its own
    applications; the group-level evaluation computes each distinct one once.
    """
    group = _norm_group(comm, group)
    p = len(group)
    me = _position(comm, group)
    redundant = isinstance(op, RedundantOp)
    if p == 1:
        return op.finish_charged(value) if redundant else value
    if comm.group_collectives:
        return (
            yield CollectiveRequest(
                kind="allreduce",
                group=group,
                pos=me,
                rootpos=0,
                value=value,
                op=op,
                tag=tag,
                channel=channel,
            )
        )

    # Largest power of two <= p.
    pow2 = 1
    while pow2 * 2 <= p:
        pow2 *= 2
    rem = p - pow2

    acc = value
    # Fold ranks beyond the power-of-two boundary onto their partners.
    if me >= pow2:
        dest = group[me - pow2]
        comm.send(dest, acc, tag=(tag, "fold"), channel=channel)
    elif me < rem:
        other = yield from comm.co_recv(group[me + pow2], tag=(tag, "fold"))
        acc = op(other, acc)

    if me < pow2:
        k = 1
        while k < pow2:
            partner = me ^ k
            other = yield from comm.co_sendrecv(
                group[partner], acc, tag=(tag, k), channel=channel
            )
            # Keep a deterministic order: lower position's contribution first.
            acc = op(other, acc) if partner < me else op(acc, other)
            k *= 2

    # Un-fold: send the result back to the folded ranks.
    if me < rem:
        comm.send(group[me + pow2], acc, tag=(tag, "unfold"), channel=channel)
    elif me >= pow2:
        acc = yield from comm.co_recv(group[me - pow2], tag=(tag, "unfold"))
    return op.finish_charged(acc) if redundant else acc


def gather(
    comm: Communicator,
    value: Any,
    root: int,
    group: Optional[Sequence[int]] = None,
    tag: Any = "gather",
    channel: str = "any",
) -> Optional[List[Any]]:
    """Binomial-tree gather; returns the list of contributions (in group order) on ``root``."""
    def merge(a: dict, b: dict) -> dict:
        out = dict(b)
        out.update(a)
        return out

    me = _position(comm, _norm_group(comm, group))
    result = yield from reduce(
        comm, {me: value}, merge, root, group=group, tag=tag, channel=channel
    )
    if comm.rank == root and result is not None:
        return [result[i] for i in sorted(result)]
    return None


def allgather(
    comm: Communicator,
    value: Any,
    group: Optional[Sequence[int]] = None,
    tag: Any = "allgather",
    channel: str = "any",
) -> List[Any]:
    """Butterfly all-gather; every rank receives the list of contributions in group order."""
    grp = _norm_group(comm, group)
    me = _position(comm, grp)

    def merge(a: dict, b: dict) -> dict:
        out = dict(b)
        out.update(a)
        return out

    combined = yield from allreduce(
        comm, {me: value}, merge, group=grp, tag=tag, channel=channel
    )
    return [combined[i] for i in sorted(combined)]


def scatter(
    comm: Communicator,
    values: Optional[Sequence[Any]],
    root: int,
    group: Optional[Sequence[int]] = None,
    tag: Any = "scatter",
    channel: str = "any",
) -> Any:
    """Scatter one element of ``values`` (significant on ``root``) to each group rank.

    Implemented as root-sends (linear), which is how ScaLAPACK distributes
    small per-process payloads; the latency cost is attributed to the root.
    """
    group = _norm_group(comm, group)
    me = _position(comm, group)
    rootpos = _root_position("scatter", root, group)
    if comm.rank == root and (values is None or len(values) != len(group)):
        raise ValueError("root must supply one value per group member")
    if comm.group_collectives and len(group) > 1:
        return (
            yield CollectiveRequest(
                kind="scatter",
                group=group,
                pos=me,
                rootpos=rootpos,
                value=list(values) if comm.rank == root else None,
                op=None,
                tag=tag,
                channel=channel,
            )
        )
    if comm.rank == root:
        for pos, dest in enumerate(group):
            if dest == root:
                continue
            comm.send(dest, values[pos], tag=(tag, pos), channel=channel)
        return values[rootpos]
    return (yield from comm.co_recv(root, tag=(tag, me)))


def barrier(
    comm: Communicator,
    group: Optional[Sequence[int]] = None,
    tag: Any = "barrier",
    channel: str = "any",
) -> None:
    """Synchronise all ranks of the group (an all-reduce of nothing)."""
    yield from allreduce(comm, 0, lambda a, b: 0, group=group, tag=tag, channel=channel)
