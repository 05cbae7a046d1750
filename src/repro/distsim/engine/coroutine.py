"""The scheduler of the virtual MPI: one host thread steps every rank.

Each rank's SPMD program runs as a *generator coroutine* (see the coroutine
protocol in :mod:`repro.distsim.engine.base`), and a single host thread
steps the runnable generator with the smallest ``(simulated clock, rank)``
key — a discrete-event simulation ordered by the α-β-γ model's own time.  A
receive is ``yield RecvRequest``: a Python frame suspension, so process
counts in the thousands (ptslu at P = 4096, pdgesv at P = 2048) run in
seconds.

Collectives are *vectorized*: a broadcast/reduce/all-reduce/scatter over a
rank group yields one group-level
:class:`~repro.distsim.engine.base.CollectiveRequest`; the scheduler
rendezvouses the ``len(group)`` participants on a single event and evaluates
the collective's communication tree centrally
(:mod:`repro.distsim.engine.group_ops`), charging each rank every message of
that tree — one event instead of ``O(P)`` suspensions and envelope
deliveries per collective.  Point-to-point traffic (e.g. the pairwise
exchanges of ``pdlaswp``) flows through stash + wake.

The interleaving is a pure function of the rank programs and the machine
model, so repeated runs are bit-for-bit identical, and deadlock is detected
structurally: when no rank is runnable and some are suspended, every
suspended rank fails at once with a
:class:`~repro.distsim.errors.DeadlockError` naming the ``(source, tag)`` or
the collective it waits on.
"""

from __future__ import annotations

import heapq
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...machines.model import MachineModel
from ..errors import DeadlockError, RankFailedError, SimulationError
from ..tracing import RankTrace, RunTrace
from .base import CollectiveRequest, Communicator, Envelope, RecvRequest
from .group_ops import evaluate_collective

_READY = "ready"
_BLOCKED = "blocked"  # suspended on a RecvRequest
_JOINED = "joined"  # suspended in a partially-assembled collective
_DONE = "done"


class _RankState:
    """Book-keeping the scheduler holds for one rank coroutine."""

    __slots__ = ("rank", "comm", "gen", "status", "waiting", "resume_value", "pending_exc")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.comm: Optional[Communicator] = None
        self.gen = None
        self.status = _READY
        self.waiting: Optional[Any] = None  # RecvRequest or CollectiveRequest
        self.resume_value: Any = None
        self.pending_exc: Optional[BaseException] = None


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
        self.failures: Dict[int, BaseException] = {}
        # Rendezvous buckets: key -> FIFO list of partially-filled instances,
        # each mapping group position -> its CollectiveRequest.  The FIFO
        # handles back-to-back same-key collectives (e.g. repeated barriers):
        # a rank joining its i-th instance lands in the i-th bucket.
        self.pending_collectives: Dict[Any, List[Dict[int, CollectiveRequest]]] = {}

    # --------------------------------------------------------------- stepping
    def run(self) -> None:
        nprocs = len(self.states)
        while self.n_done < nprocs:
            if not self.heap:
                self._inject_deadlock()
            _, rank = heapq.heappop(self.heap)
            self._step(self.states[rank])

    def _step(self, st: _RankState) -> None:
        try:
            if st.pending_exc is not None:
                exc, st.pending_exc = st.pending_exc, None
                request = st.gen.throw(exc)
            else:
                value, st.resume_value = st.resume_value, None
                request = st.gen.send(value)
        except StopIteration as stop:
            self.results[st.rank] = stop.value
            self._finish(st)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self.failures[st.rank] = exc
            self._finish(st)
        else:
            self._handle_request(st, request)

    def _finish(self, st: _RankState) -> None:
        st.status = _DONE
        st.gen = None
        self.n_done += 1

    def _handle_request(self, st: _RankState, request: Any) -> None:
        if isinstance(request, RecvRequest):
            stash = st.comm._stash
            for i, env in enumerate(stash):
                if env.source == request.source and env.tag == request.tag:
                    st.resume_value = stash.pop(i)
                    heapq.heappush(self.heap, (st.comm.clock, st.rank))
                    return
            st.status = _BLOCKED
            st.waiting = request
        elif isinstance(request, CollectiveRequest):
            self._join_collective(st, request)
        else:
            st.pending_exc = SimulationError(
                f"rank {st.rank} yielded an unknown request: {request!r}"
            )
            heapq.heappush(self.heap, (st.comm.clock, st.rank))

    # ------------------------------------------------------- point-to-point
    def deliver(self, dest: int, env: Envelope) -> None:
        st = self.states[dest]
        if (
            st.status is _BLOCKED
            and st.waiting.source == env.source
            and st.waiting.tag == env.tag
        ):
            # Nothing else can match (the rank scanned its stash before
            # suspending), so resolve the wait directly.
            st.status = _READY
            st.waiting = None
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
            self._finish_collective(req.group, req.kind, req.channel, bucket)
        else:
            st.status = _JOINED
            st.waiting = req

    def _finish_collective(
        self,
        group: Sequence[int],
        kind: str,
        channel: str,
        bucket: Dict[int, CollectiveRequest],
    ) -> None:
        p = len(group)
        comms = [self.states[group[pos]].comm for pos in range(p)]
        requests = [bucket[pos] for pos in range(p)]
        rootpos = requests[0].rootpos
        if kind == "scatter":
            values: List[Any] = requests[rootpos].value
        else:
            values = [r.value for r in requests]
        results = evaluate_collective(
            comms, kind, values, [r.op for r in requests], rootpos, channel
        )
        for pos in range(p):
            st = self.states[group[pos]]
            st.status = _READY
            st.waiting = None
            st.resume_value = results[pos]
            heapq.heappush(self.heap, (st.comm.clock, st.rank))

    # -------------------------------------------------------------- deadlock
    def _inject_deadlock(self) -> None:
        """No rank is runnable and some are suspended: fail them all, now.

        Every suspended rank is re-queued with a pending
        :class:`DeadlockError` describing, per rank, the ``(source, tag)`` or
        the collective it was waiting on; the ranks then unwind one by one in
        deterministic heap order.
        """
        blocked = [s for s in self.states if s.status in (_BLOCKED, _JOINED)]
        info: Dict[int, Dict[str, Any]] = {}
        parts: List[str] = []
        for s in blocked:
            w = s.waiting
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
        self.pending_collectives.clear()
        for s in blocked:
            s.pending_exc = DeadlockError(message, blocked=info)
            s.status = _READY
            s.waiting = None
            heapq.heappush(self.heap, (s.comm.clock, s.rank))


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


class ExecutionEngine:
    """The scheduler under its registered name (``"coroutine"``).

    Selected via the ``engine=`` argument of :func:`repro.distsim.run_spmd`
    (or the ``engine`` field of a :class:`~repro.core.options.SolveConfig`).
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def run(
        self,
        nprocs: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: dict,
        machine: MachineModel,
    ) -> RunTrace:
        """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` virtual ranks.

        When ranks failed for mixed reasons, the chained ``__cause__`` is the
        lowest-ranked *root* failure: DeadlockErrors are secondary whenever a
        rank crashed outright (its crash is what left the others waiting), so
        they are only used as the cause when every failure is a deadlock.
        """
        traces = [RankTrace(rank=r) for r in range(nprocs)]
        sched = _CoroutineScheduler(nprocs)
        for st in sched.states:
            st.comm = Communicator(
                st.rank, nprocs, machine, traces[st.rank], sched.deliver
            )
            st.gen = _rank_program(fn, st.comm, args, kwargs)
        sched.run()
        failures = sched.failures
        if failures:
            cause = next(
                (
                    failures[r]
                    for r in sorted(failures)
                    if not isinstance(failures[r], DeadlockError)
                ),
                failures[min(failures)],
            )
            raise RankFailedError(failures) from cause
        return RunTrace(ranks=traces, results=sched.results, engine=self.name)
