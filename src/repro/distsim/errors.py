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
    """One or more ranks raised an exception during an SPMD run.

    The original exception of the lowest failing rank is chained as the
    ``__cause__`` of this error.
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        super().__init__(f"SPMD ranks failed: {ranks}")
