"""Exceptions raised by the virtual message-passing runtime."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Base class for errors raised by the virtual MPI runtime."""


class DeadlockError(SimulationError):
    """No rank is runnable while some still wait for a message or collective.

    In a correct SPMD program running under the simulator every receive is
    eventually matched by a send; a deadlock therefore indicates a
    communication mismatch (wrong tag, wrong peer, or a rank that exited
    early).  It is detected structurally, the moment it happens.

    Attributes
    ----------
    blocked:
        Structured description of what each blocked rank was waiting on:
        a mapping ``rank -> {"source": int, "tag": ...}`` for point-to-point
        waits, or ``rank -> {"collective": kind, "tag": ..., "group": (...)}``
        for ranks parked inside an unmatched group collective.
    """

    def __init__(self, message, blocked=None):
        super().__init__(message)
        self.blocked = dict(blocked or {})


class RankFailedError(SimulationError):
    """A rank failed, which ended the SPMD run.

    The failing rank's own exception (a :class:`DeadlockError` for a
    structural deadlock) is chained as ``__cause__`` and is the one entry of
    ``failures``.  ``tag`` is the tag of the last receive or collective the
    rank took part in — inside a step op, the step's inner collective
    (``None`` if it failed before its first one).

    When several ranks would fail, the one reported is the first to fail in
    the scheduler's ``(simulated clock, rank)`` stepping order
    (:mod:`repro.distsim.engine.coroutine`): that order decides which
    failure a run reports, while the results of a run that succeeds do not
    depend on it.
    """

    def __init__(self, rank, tag, cause):
        self.rank = rank
        self.tag = tag
        self.failures = {rank: cause}
        where = f" after {tag!r}" if tag is not None else ""
        super().__init__(f"rank {rank} failed{where}: {type(cause).__name__}: {cause}")
