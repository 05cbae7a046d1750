"""The collective operations of the virtual MPI.

ScaLAPACK's drivers and CALU need only broadcasts, reductions and
all-reductions along rows and columns of the process grid (plus the pairwise
exchanges of ``Communicator.co_sendrecv``), so those three are the
collectives here, with :func:`step` for a whole algorithmic step.  The
paper's model prices each collective over ``P`` processes as ``log2(P)``
communication steps; each collective here is priced as a binomial tree
(broadcast, reduce) or a recursive-doubling butterfly (all-reduce) of
exactly that depth, so the simulated critical path matches the model's
assumption.  Each takes one value per member.

All collectives operate over an explicit *group*: an ordered list of world
ranks.  This is how "the column of the grid holding block-column j" or "the
process row holding block-row j" are expressed.  Every rank in the group must
call the collective with the same group (same order); other ranks must not.

Each collective is a generator function for use inside rank programs
(``value = yield from broadcast(comm, ...)``).  Over more than one rank it
yields one group-level :class:`~repro.distsim.engine.base.CollectiveRequest`;
the scheduler evaluates its communication tree centrally
(:mod:`repro.distsim.engine.group_ops`), charging every participant each
message of that tree.  A one-member group sends nothing and returns at once.

:func:`step` is the same mechanism for a whole algorithmic step: the host
runs the step's evaluator once over every member's value (a *step op*; the
contract is in :mod:`repro.distsim.engine.group_ops`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from .engine.base import CollectiveRequest, RedundantOp
from .engine.group_ops import StepFailure, StepGroup
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
    return (yield CollectiveRequest(kind="broadcast", group=group, pos=me, rootpos=rootpos,
                                    value=value, op=None, tag=tag, channel=channel))


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
    if p == 1:
        return value
    return (yield CollectiveRequest(kind="reduce", group=group, pos=me, rootpos=rootpos,
                                    value=value, op=op, tag=tag, channel=channel))


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
    ``op.finish(reduced)``, charged to it; the group-level evaluation
    computes each distinct application once and charges every rank that
    performs it.
    """
    group = _norm_group(comm, group)
    p = len(group)
    me = _position(comm, group)
    redundant = isinstance(op, RedundantOp)
    if p == 1:
        return op.finish_charged(value) if redundant else value
    return (yield CollectiveRequest(kind="allreduce", group=group, pos=me, rootpos=0,
                                    value=value, op=op, tag=tag, channel=channel))


def step(
    comm: Communicator,
    value: Any,
    evaluator: Callable[[StepGroup, List[Any]], List[Any]],
    group: Optional[Sequence[int]] = None,
    tag: Any = "step",
) -> Any:
    """Join a step op: ``evaluator`` runs once, on the host, over the group.

    Every member passes its own ``value`` and the same ``evaluator``;
    ``evaluator(step_group, values)`` receives a
    :class:`~repro.distsim.engine.group_ops.StepGroup` and the values in
    group order, charges each member what that member's own program would
    have, and returns one result per member.  This rank gets its own.  A
    one-member group runs the evaluator inline and raises its failure as
    the rank's own.
    """
    group = _norm_group(comm, group)
    me = _position(comm, group)
    if len(group) == 1:
        try:
            return evaluator(StepGroup([comm], [None]), [value])[0]
        except StepFailure as failure:
            cause = failure.cause
        raise cause
    return (yield CollectiveRequest(kind="step", group=group, pos=me, rootpos=0,
                                    value=value, op=evaluator, tag=tag, channel="any"))
