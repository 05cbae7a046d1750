"""A virtual MPI: SPMD ranks with α-β-γ cost accounting.

The paper's experiments ran on MPI over 64-888 processors.  This module
provides an in-process substitute: :func:`run_spmd` executes ``P`` copies of
the same rank program, each bound to a :class:`Communicator` for its rank.
Collectives (:mod:`repro.distsim.collectives`: broadcast, reduce,
all-reduce and the step op) are priced as every message of the tree a real
MPI implementation would send, so each one of them is visible to the cost
ledger.

Rank programs are generator functions stepped by one deterministic
single-threaded scheduler (:mod:`repro.distsim.engine`): the runnable rank
with the smallest simulated clock goes next, deadlock is detected
structurally, and process counts in the thousands run in seconds.

Cost accounting
---------------
Each rank owns a :class:`~repro.distsim.tracing.RankTrace` with a *simulated
clock*.  The clock advances by

* ``muladds·γ + divides·γ_d + comparisons·γ_cmp`` whenever the rank charges
  arithmetic,
* ``α + w·β`` whenever the rank sends a message of ``w`` words,

and a receive synchronises the receiver's clock with the message's
availability time (``max(receiver clock, sender clock when the message
became available)``), which yields the standard critical-path time of the
α-β-γ model.  The latency/bandwidth parameters can differ per *channel*
("col" = within a process column, "row" = within a process row), matching the
``α_c/β_c`` vs ``α_r/β_r`` distinction of Section 4.

Fidelity note: real networks overlap computation with communication and
contend for links; this simulator does neither.  That is the documented
substitution — the quantities the paper argues about (message counts, word
counts, flops, and their weighted sum) are reproduced exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..machines.model import MachineModel, unit_machine
from .engine import Communicator, payload_words
from .engine.coroutine import run
from .tracing import RunTrace

__all__ = ["Communicator", "run_spmd", "payload_words"]


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: Optional[MachineModel] = None,
    **kwargs: Any,
) -> RunTrace:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` virtual ranks.

    Parameters
    ----------
    nprocs:
        Number of ranks to launch.
    fn:
        The SPMD program: a generator function receiving a
        :class:`Communicator` as its first argument (``x = yield from
        comm.co_recv(src)``, ``v = yield from broadcast(comm, ...)``); its
        return value is collected into the result list.  A plain function
        that never receives works too.
    machine:
        Machine model pricing communication and arithmetic; defaults to
        :func:`repro.machines.model.unit_machine` (count message steps).
    **kwargs:
        Passed to every rank's ``fn`` (``engine=`` too: no keyword selects
        the scheduler).

    Returns
    -------
    RunTrace
        Per-rank traces plus the list of per-rank return values.

    Raises
    ------
    RankFailedError
        At the first rank failure, which ends the run: no other rank is
        stepped and every live rank generator is closed.  It is chained from
        that rank's exception (a ``DeadlockError`` when no rank is runnable
        and some wait), and names the rank and the tag it last yielded.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    return run(nprocs, fn, args, kwargs, machine or unit_machine())
