"""The scheduler of the virtual MPI: one host thread steps every rank.

Each rank's SPMD program runs as a *generator coroutine* (see the coroutine
protocol in :mod:`repro.distsim.engine.base`), and a single host thread
steps the runnable generator with the smallest ``(simulated clock, rank)``
key — a discrete-event simulation ordered by the α-β-γ model's own time.  A
receive is ``yield RecvRequest``: a Python frame suspension, so process
counts in the thousands (ptslu at P = 4096, pdgesv at P = 2048) run in
seconds.

Collectives are *vectorized*: a broadcast/reduce/all-reduce over a rank
group yields one group-level
:class:`~repro.distsim.engine.base.CollectiveRequest`; the scheduler
rendezvouses the ``len(group)`` participants on a single event and evaluates
the collective's communication tree centrally
(:mod:`repro.distsim.engine.group_ops`), charging each rank every message of
that tree — one event instead of ``O(P)`` suspensions and envelope
deliveries per collective.  A *step op* (``kind="step"``) is one such event
for a whole algorithmic step: its evaluator runs once over every member and
evaluates the step's inner collectives the same way.  Point-to-point traffic
(e.g. the pairwise exchanges of ``pdlaswp``) flows through stash + wake.

The interleaving is a pure function of the rank programs and the machine
model, so repeated runs are bit-for-bit identical.  The simulated result of
a run that succeeds does not depend on it: a rank reads another rank's clock
only through a message's ``available_at`` (``tests/test_stepping_order.py``
replays runs under random orders).  Which failure a failing run reports does
depend on it, and the ``(clock, rank)`` order is part of the contract: the
first failure in that order ends the run.  The scheduler steps no rank after
it, closes every live rank generator in rank order (so their ``finally``
blocks run) and raises one :class:`~repro.distsim.errors.RankFailedError`
chained from the failing rank's own exception.  Deadlock is detected
structurally: when no rank is runnable and some are suspended, the lowest
suspended rank fails with a :class:`~repro.distsim.errors.DeadlockError`
naming, for every suspended rank, the ``(source, tag)`` or the collective it
waits on.
"""

from __future__ import annotations

import heapq
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...machines.model import MachineModel
from ..errors import DeadlockError, RankFailedError, SimulationError
from ..tracing import RankTrace, RunTrace
from .base import CollectiveRequest, Communicator, Envelope, RecvRequest
from .group_ops import StepFailure, evaluate_collective

_READY = "ready"
_BLOCKED = "blocked"  # suspended on a RecvRequest
_JOINED = "joined"  # suspended in a partially-assembled collective
_DONE = "done"


class _RankState:
    """Book-keeping the scheduler holds for one rank coroutine."""

    __slots__ = ("rank", "comm", "gen", "status", "request", "tag", "resume_value")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.comm: Optional[Communicator] = None
        self.gen = None
        self.status = _READY
        # The last RecvRequest or CollectiveRequest the rank yielded: what it
        # waits on while BLOCKED or JOINED.
        self.request: Optional[Any] = None
        # What a failure of the rank names: the tag of the last receive or
        # collective it took part in (for a step op, the step's inner one).
        self.tag: Any = None
        self.resume_value: Any = None


class _CoroutineScheduler:
    """Heap-ordered single-threaded stepper over the rank generators.

    Invariant: exactly one generator executes at a time (the host thread runs
    them in sequence), so scheduler state is only mutated between steps.  The
    heap holds each READY rank exactly once, keyed by ``(simulated clock,
    rank)`` — a rank's clock cannot change while it is suspended, so entries
    never go stale.
    """

    def __init__(self, nprocs: int) -> None:
        self.states = [_RankState(r) for r in range(nprocs)]
        self.heap: List[Tuple[float, int]] = [(0.0, r) for r in range(nprocs)]
        self.n_done = 0
        self.results: List[Any] = [None] * nprocs
        # Rendezvous buckets: key -> FIFO list of partially-filled instances,
        # each mapping group position -> its CollectiveRequest.  The FIFO
        # handles back-to-back same-key collectives (e.g. repeated
        # all-reduces): a rank joining its i-th instance lands in the i-th
        # bucket.
        self.pending_collectives: Dict[Any, List[Dict[int, CollectiveRequest]]] = {}

    # --------------------------------------------------------------- stepping
    def run(self) -> None:
        nprocs = len(self.states)
        while self.n_done < nprocs:
            if not self.heap:
                self._fail_deadlock()
            _, rank = heapq.heappop(self.heap)
            self._step(self.states[rank])

    def _step(self, st: _RankState) -> None:
        value, st.resume_value = st.resume_value, None
        try:
            request = st.gen.send(value)
        except StopIteration as stop:
            self.results[st.rank] = stop.value
            st.status = _DONE
            st.gen = None
            st.request = None
            self.n_done += 1
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self._fail(st, exc)
        else:
            self._handle_request(st, request)

    def _fail(self, st: _RankState, exc: BaseException) -> None:
        """End the run: close every live rank generator, raise for ``st``."""
        for s in self.states:
            if s.gen is not None:
                s.gen.close()
        raise RankFailedError(st.rank, st.tag, exc) from exc

    def _handle_request(self, st: _RankState, request: Any) -> None:
        if isinstance(request, RecvRequest):
            st.request = request
            st.tag = request.tag
            stash = st.comm._stash
            for i, env in enumerate(stash):
                if env.source == request.source and env.tag == request.tag:
                    st.resume_value = stash.pop(i)
                    heapq.heappush(self.heap, (st.comm.clock, st.rank))
                    return
            st.status = _BLOCKED
        elif isinstance(request, CollectiveRequest):
            st.request = request
            if request.kind != "step":
                st.tag = request.tag
            self._join_collective(st, request)
        else:
            msg = f"rank {st.rank} yielded an unknown request: {request!r}"
            self._fail(st, SimulationError(msg))

    # ------------------------------------------------------- point-to-point
    def deliver(self, dest: int, env: Envelope) -> None:
        st = self.states[dest]
        if (
            st.status is _BLOCKED
            and st.request.source == env.source
            and st.request.tag == env.tag
        ):
            # Nothing else can match (the rank scanned its stash before
            # suspending), so resolve the wait directly.
            st.status = _READY
            st.resume_value = env
            heapq.heappush(self.heap, (st.comm.clock, st.rank))
        else:
            st.comm._stash.append(env)

    # ----------------------------------------------------------- collectives
    @staticmethod
    def _collective_key(req: CollectiveRequest) -> Any:
        return (req.kind, req.group, req.tag, req.channel, req.rootpos)

    def _join_collective(self, st: _RankState, req: CollectiveRequest) -> None:
        key = self._collective_key(req)
        buckets = self.pending_collectives.setdefault(key, [])
        for bucket in buckets:
            if req.pos not in bucket:
                bucket[req.pos] = req
                break
        else:
            bucket = {req.pos: req}
            buckets.append(bucket)
        if len(bucket) == len(req.group):
            buckets.remove(bucket)
            if not buckets:
                del self.pending_collectives[key]
            try:
                self._finish_collective(req.group, req.kind, req.channel, bucket)
            except StepFailure as failure:  # charged to the member it names
                failed = self.states[failure.rank]
                failed.tag = failure.tag
                self._fail(failed, failure.cause)
            except Exception as exc:  # noqa: BLE001 - e.g. a reduction operator
                self._fail(st, exc)  # charged to the rank that completed it
        else:
            st.status = _JOINED

    def _finish_collective(
        self,
        group: Sequence[int],
        kind: str,
        channel: str,
        bucket: Dict[int, CollectiveRequest],
    ) -> None:
        p = len(group)
        members = [self.states[group[pos]] for pos in range(p)]
        comms = [st.comm for st in members]
        requests = [bucket[pos] for pos in range(p)]
        tags = [st.tag for st in members] if kind == "step" else None
        results = evaluate_collective(
            comms, kind, [r.value for r in requests], [r.op for r in requests],
            requests[0].rootpos, channel, tags,
        )
        for pos, st in enumerate(members):
            if tags is not None:
                st.tag = tags[pos]
            st.status = _READY
            st.resume_value = results[pos]
            heapq.heappush(self.heap, (st.comm.clock, st.rank))

    # -------------------------------------------------------------- deadlock
    def _fail_deadlock(self) -> None:
        """No rank is runnable and some are suspended: fail the lowest one.

        The :class:`DeadlockError` describes, per suspended rank, the
        ``(source, tag)`` or the collective it was waiting on.
        """
        blocked = [s for s in self.states if s.status in (_BLOCKED, _JOINED)]
        info: Dict[int, Dict[str, Any]] = {}
        parts: List[str] = []
        for s in blocked:
            w = s.request
            if isinstance(w, CollectiveRequest):
                info[s.rank] = {
                    "collective": w.kind,
                    "tag": w.tag,
                    "group": tuple(w.group),
                }
                parts.append(
                    f"rank {s.rank} waiting in collective "
                    f"(kind={w.kind}, tag={w.tag!r}, group={list(w.group)})"
                )
            else:
                info[s.rank] = {"source": w.source, "tag": w.tag}
                parts.append(
                    f"rank {s.rank} waiting for (source={w.source}, tag={w.tag!r})"
                )
        message = "structural deadlock: no rank is runnable [" + "; ".join(parts) + "]"
        self._fail(blocked[0], DeadlockError(message, blocked=info))


def _rank_program(fn: Callable[..., Any], comm: Communicator, args, kwargs):
    """One rank's run of ``fn`` as a generator, whatever ``fn`` is.

    A generator program is delegated to.  A plain function has no suspension
    point, so calling it — here, at the rank's first step, when every peer's
    communicator exists — already ran it to completion.
    """
    out = fn(comm, *args, **kwargs)
    if inspect.isgenerator(out):
        out = yield from out
    return out


def run(
    nprocs: int,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: dict,
    machine: MachineModel,
) -> RunTrace:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` virtual ranks.

    The first rank failure (an exception, an unknown yielded request or a
    structural deadlock) raises :class:`RankFailedError` from it.
    """
    traces = [RankTrace(rank=r) for r in range(nprocs)]
    sched = _CoroutineScheduler(nprocs)
    for st in sched.states:
        st.comm = Communicator(
            st.rank, nprocs, machine, traces[st.rank], sched.deliver
        )
        st.gen = _rank_program(fn, st.comm, args, kwargs)
    sched.run()
    return RunTrace(ranks=traces, results=sched.results)
