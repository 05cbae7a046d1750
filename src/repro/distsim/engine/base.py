"""Shared machinery of the virtual-MPI execution engines.

An *execution engine* decides how the ``P`` rank programs of an SPMD run are
interleaved on the host machine; it has no influence on the simulated
quantities.  All cost accounting — words per payload, clock advancement for
arithmetic and messages, the per-rank trace counters — lives here in
:class:`Communicator`, which both backends subclass.  A backend supplies only
the *transport*: how an envelope travels from sender to receiver
(:meth:`Communicator._deliver`) and how a rank waits for a matching message
(:meth:`Communicator._match`).

Because every simulated quantity is computed in this shared base from the
rank program's own sequence of calls, the two backends produce identical
message counts, word counts, flop counts and critical-path times for the same
program — the property the cross-backend test suite pins down.

Zero-copy payload accounting
----------------------------
``send`` normally copies numpy payloads defensively so that a sender mutating
its buffer after the call cannot race the receiver.  An engine may opt into
*copy elision* (``copy_elision = True``): when the payload is a fresh
temporary — a base ndarray owning its data whose only references are the
call frames of the send itself — the sender provably holds no handle through
which it could later mutate the buffer, so ownership can be transferred to
the receiver without a copy.  The words charged are identical either way;
only the defensive ``ndarray.copy()`` is skipped.  Elided sends are counted
in :attr:`~repro.distsim.tracing.RankTrace.zero_copy_sends`.

The coroutine protocol
----------------------
Rank programs may be written as *generator coroutines*: instead of blocking
inside :meth:`Communicator.recv`, they ``yield`` a :class:`RecvRequest` (via
:meth:`Communicator.co_recv`) or a :class:`CollectiveRequest` (via the group
branch of :mod:`repro.distsim.collectives`) and are resumed with the matched
envelope / collective result.  ``send`` never blocks in this simulator, so a
receive is the only suspension point and the protocol stays tiny.

Engines that park a real thread per rank run such programs through
:func:`drive`, a trampoline that services each yielded request against the
communicator's blocking transport — so one body works on every engine.  The
single-threaded coroutine engine instead schedules the generators natively.
:class:`SpmdProgram` packages both interfaces behind one name: calling the
wrapped routine blocks (the historical API), ``routine.co(...)`` returns the
resumable generator for use inside an enclosing coroutine (``yield from``).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...kernels.flops import FlopCounter
from ...machines.model import MachineModel
from ..errors import DeadlockError, RankFailedError, SimulationError
from ..tracing import RankTrace, RunTrace

#: Fallback number of seconds a blocking receive waits before declaring
#: deadlock (threaded backend only; the event backend detects deadlock
#: structurally and never waits).  Overridable via ``REPRO_VMPI_TIMEOUT``.
DEFAULT_TIMEOUT = 120.0


def default_timeout() -> float:
    """Resolve the deadlock timeout from ``REPRO_VMPI_TIMEOUT`` (else 120 s)."""
    raw = os.environ.get("REPRO_VMPI_TIMEOUT")
    if raw is None:
        return DEFAULT_TIMEOUT
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_TIMEOUT


def payload_words(payload: Any) -> float:
    """Estimate the size of a message payload in 8-byte words.

    numpy arrays count their actual storage; scalars and small control
    objects (pivot indices, flags) count 1 word each; tuples/lists/dicts count
    the sum of their elements.  This mirrors how a real code would pack the
    same information into MPI buffers.
    """
    if isinstance(payload, np.ndarray):
        return float(payload.size * payload.itemsize) / 8.0
    if isinstance(payload, (int, float, np.integer, np.floating, bool)) or payload is None:
        return 1.0
    if isinstance(payload, (tuple, list)):
        return float(sum(payload_words(x) for x in payload)) if payload else 1.0
    if isinstance(payload, dict):
        return float(sum(payload_words(v) for v in payload.values())) if payload else 1.0
    if isinstance(payload, str):
        return max(1.0, len(payload) / 8.0)
    return 1.0


@dataclass
class Envelope:
    """Internal wrapper around a message in flight."""

    source: int
    tag: Any
    payload: Any
    words: float
    available_at: float  # simulated time at which the receiver may consume it


@dataclass
class RecvRequest:
    """Yielded by a rank coroutine to suspend until a matching message arrives.

    The scheduler (or the blocking trampoline) resumes the coroutine with the
    matched :class:`Envelope`; all receive-side accounting stays inside
    :meth:`Communicator.co_recv`, engine-independent.
    """

    source: int
    tag: Any


@dataclass
class CollectiveRequest:
    """Yielded by a rank coroutine to join a single group-level collective.

    Engines advertising ``group_collectives`` rendezvous all ``len(group)``
    participants on one event keyed by ``(kind, group, tag, channel,
    rootpos)`` and evaluate the collective centrally with exact per-rank cost
    attribution (:mod:`repro.distsim.engine.group_ops`); the coroutine is
    resumed with its rank's result.  Engines without group delivery never see
    this request — the collectives fall back to their point-to-point trees.
    """

    kind: str  # "broadcast" | "reduce" | "allreduce" | "scatter"
    #: Participating world ranks in group order: a tuple, or a ``range`` for
    #: the default all-ranks group (hashes and ``index``-es in O(1)).
    group: Sequence[int]
    pos: int  # caller's position within ``group``
    rootpos: int  # root's position within ``group`` (0 for unrooted kinds)
    value: Any
    op: Optional[Callable[[Any, Any], Any]]
    tag: Any
    channel: str


class RedundantOp:
    """All-reduce operator in pure form: operands in, value and flop count out.

    After the butterfly round with step ``k`` every rank of an aligned block
    of ``2k`` positions holds the same value, so the ranks of a block apply
    the operator *redundantly* to the same two operands — the arithmetic TSLU
    trades for fewer messages.  That redundancy belongs to the simulated
    machine, not to the host: an operator written in this form lets an engine
    that evaluates collectives centrally compute each distinct application
    once and charge the returned :class:`FlopCounter` to every rank that
    would have performed it, so ledgers and clocks are unchanged.

    Subclasses implement :meth:`combine` and may override :meth:`finish`;
    neither may modify its operands, and what they return is shared between
    ranks.  Calling the operator — what the point-to-point all-reduce does —
    evaluates one application and charges the calling rank.
    """

    def __init__(self, comm: "Communicator") -> None:
        self.comm = comm

    def combine(self, pairs: Sequence[Tuple[Any, Any]]) -> List[Tuple[Any, FlopCounter]]:
        """Apply the operator to independent ``(x, y)`` operand pairs.

        Returns one ``(op(x, y), flops of that application)`` per pair.
        """
        raise NotImplementedError

    def finish(self, value: Any) -> Tuple[Any, Optional[FlopCounter]]:
        """Rank-redundant epilogue applied to the all-reduced value.

        An all-reduce with a redundant operator returns ``finish(reduced)``
        on every rank and charges each the returned flops (``None``: nothing
        to charge).  The default is the identity.
        """
        return value, None

    def charge(self, flops: Optional[FlopCounter]) -> None:
        """Charge this operator's rank with ``flops``, leaving the counter intact."""
        if flops is not None:
            self.comm.charge_flops(flops.muladds, flops.divides, flops.comparisons)

    def finish_charged(self, value: Any) -> Any:
        """:meth:`finish` on this rank alone, charged to it."""
        result, flops = self.finish(value)
        self.charge(flops)
        return result

    def __call__(self, x: Any, y: Any) -> Any:
        ((value, flops),) = self.combine([(x, y)])
        self.charge(flops)
        return value


def _calibrate_fresh_refcount() -> int:
    """Reference count observed for a payload that is a pure temporary.

    Mirrors the frame depth of ``send -> _prepare_payload -> _can_elide_copy
    -> sys.getrefcount`` so the threshold adapts to how the running Python
    implementation accounts call-argument references.
    """
    if not hasattr(sys, "getrefcount"):  # pragma: no cover - non-CPython
        return 0

    def probe(x: Any) -> int:
        return sys.getrefcount(x)

    def middle(x: Any) -> int:
        return probe(x)

    def outer(x: Any) -> int:
        return middle(x)

    return outer(np.empty(0))


_FRESH_REFCOUNT = _calibrate_fresh_refcount()


def _can_elide_copy(arr: np.ndarray) -> bool:
    """True when ``arr`` is provably unreachable by the sender after ``send``.

    The proof: a base-class ndarray that owns its data and whose only
    references are the frames of the in-flight send call cannot be mutated by
    the sender afterwards (the sender retains no name bound to it), so handing
    it to the receiver without a defensive copy cannot alias.
    """
    return (
        _FRESH_REFCOUNT > 0
        and type(arr) is np.ndarray
        and arr.base is None
        and arr.flags.owndata
        and sys.getrefcount(arr) <= _FRESH_REFCOUNT
    )


class Communicator(ABC):
    """Handle through which a rank communicates and charges costs.

    The interface intentionally mirrors a small subset of mpi4py:
    :meth:`send`, :meth:`recv`, plus collective operations provided as free
    functions in :mod:`repro.distsim.collectives`.  Concrete engines supply
    the transport by implementing :meth:`_deliver` and :meth:`_match`.
    """

    #: Engines that serialize or otherwise control rank execution may enable
    #: defensive-copy elision for provably unaliased payloads.
    copy_elision: bool = False

    #: Engines that rendezvous collectives as single group-level events set
    #: this; the collectives in :mod:`repro.distsim.collectives` branch on it.
    group_collectives: bool = False

    def __init__(
        self,
        rank: int,
        size: int,
        machine: MachineModel,
        trace: RankTrace,
    ) -> None:
        self._rank = rank
        self._size = size
        self._machine = machine
        self._trace = trace
        # Messages received but not yet matched by tag/source.
        self._stash: List[Envelope] = []

    # ------------------------------------------------------------------ info
    @property
    def rank(self) -> int:
        """This process's rank in ``0..size-1``."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes in the run."""
        return self._size

    @property
    def machine(self) -> MachineModel:
        """The machine model pricing this run."""
        return self._machine

    @property
    def trace(self) -> RankTrace:
        """This rank's cost trace (counters and simulated clock)."""
        return self._trace

    @property
    def clock(self) -> float:
        """Current simulated time of this rank."""
        return self._trace.clock

    # ------------------------------------------------------------- computing
    def charge_flops(
        self, muladds: float = 0.0, divides: float = 0.0, comparisons: float = 0.0
    ) -> None:
        """Charge arithmetic to this rank and advance its simulated clock."""
        self._trace.flops.add_muladds(muladds)
        self._trace.flops.add_divides(divides)
        self._trace.flops.add_comparisons(comparisons)
        self._trace.clock += self._machine.compute_time(muladds, divides, comparisons)

    def charge_counter(self, counter: FlopCounter) -> None:
        """Charge the contents of a :class:`FlopCounter` (and reset it).

        Sequential kernels accumulate into a scratch counter; calling this
        transfers the work to the rank and zeroes the scratch counter so it
        can be reused.
        """
        self.charge_flops(counter.muladds, counter.divides, counter.comparisons)
        counter.reset()

    def advance_clock(self, seconds: float) -> None:
        """Advance the simulated clock without recording arithmetic (e.g. I/O)."""
        if seconds < 0:
            raise ValueError("cannot move the simulated clock backwards")
        self._trace.clock += seconds

    # --------------------------------------------------------- point-to-point
    def send(self, dest: int, payload: Any, tag: Any = 0, channel: str = "any") -> None:
        """Send ``payload`` to rank ``dest`` (blocking in MPI terms, but buffered).

        Parameters
        ----------
        dest:
            Destination rank.
        payload:
            Any picklable object; numpy arrays are copied defensively so later
            mutation by the sender cannot race the receiver — unless the
            engine can prove the payload is a fresh temporary (see the module
            docstring on zero-copy accounting).
        tag:
            Message tag used for matching.
        channel:
            "col", "row" or "any" — selects which latency/bandwidth parameters
            of the machine model price this message.
        """
        if not (0 <= dest < self._size):
            raise ValueError(f"invalid destination rank {dest}")
        if dest == self._rank:
            raise ValueError("self-sends are not supported; restructure the algorithm")
        zero_copy = False
        if isinstance(payload, np.ndarray):
            payload, zero_copy = self._prepare_payload(payload)
        words = payload_words(payload)
        cost = self._machine.message_time(words, channel)
        self._trace.record_send(words, channel, zero_copy=zero_copy)
        self._trace.clock += cost
        env = Envelope(
            source=self._rank,
            tag=tag,
            payload=payload,
            words=words,
            available_at=self._trace.clock,
        )
        self._deliver(dest, env)

    def recv(self, source: int, tag: Any = 0) -> Any:
        """Receive a message from ``source`` with matching ``tag``.

        Blocks until a matching message arrives (the threaded backend guards
        the wait with a deadlock timeout; the event backend detects deadlock
        structurally).  The rank's simulated clock is advanced to at least the
        time at which the message became available on the sender's side.
        """
        env = self._match(source, tag)
        self._trace.record_recv(env.words)
        self._trace.clock = max(self._trace.clock, env.available_at)
        return env.payload

    def sendrecv(
        self,
        dest: int,
        payload: Any,
        source: Optional[int] = None,
        tag: Any = 0,
        channel: str = "any",
    ) -> Any:
        """Exchange messages with a partner (send to ``dest``, receive from ``source``).

        ``source`` defaults to ``dest`` — the pairwise exchange used at every
        level of the TSLU butterfly.
        """
        if source is None:
            source = dest
        self.send(dest, payload, tag=tag, channel=channel)
        return self.recv(source, tag=tag)

    # ------------------------------------------------------ coroutine protocol
    def co_recv(self, source: int, tag: Any = 0):
        """Coroutine form of :meth:`recv`: ``payload = yield from comm.co_recv(...)``.

        Yields a :class:`RecvRequest` and is resumed with the matched
        envelope.  The accounting is exactly :meth:`recv`'s — same counters,
        same clock synchronisation — so traces are engine-independent.
        """
        env = yield RecvRequest(source, tag)
        self._trace.record_recv(env.words)
        self._trace.clock = max(self._trace.clock, env.available_at)
        return env.payload

    def co_sendrecv(
        self,
        dest: int,
        payload: Any,
        source: Optional[int] = None,
        tag: Any = 0,
        channel: str = "any",
    ):
        """Coroutine form of :meth:`sendrecv` (the send part never blocks)."""
        if source is None:
            source = dest
        self.send(dest, payload, tag=tag, channel=channel)
        return (yield from self.co_recv(source, tag=tag))

    def _service(self, request: Any) -> Any:
        """Blocking fulfilment of a yielded request (used by :func:`drive`)."""
        if isinstance(request, RecvRequest):
            return self._match(request.source, request.tag)
        if isinstance(request, CollectiveRequest):
            raise SimulationError(
                f"engine cannot service a group-level {request.kind} collective; "
                "group delivery requires a scheduler with rendezvous support"
            )
        raise SimulationError(
            f"rank coroutine yielded an unknown request: {request!r}"
        )

    # ---------------------------------------------------------------- helpers
    def _prepare_payload(self, arr: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Return the array to enqueue and whether the defensive copy was elided."""
        if self.copy_elision and _can_elide_copy(arr):
            return arr, True
        return arr.copy(), False

    # ------------------------------------------------------ transport (engine)
    @abstractmethod
    def _deliver(self, dest: int, env: Envelope) -> None:
        """Hand an envelope to rank ``dest``'s incoming message store."""

    @abstractmethod
    def _match(self, source: int, tag: Any) -> Envelope:
        """Block until a message matching ``(source, tag)`` is available."""


def drive(comm: Communicator, gen) -> Any:
    """Run a rank coroutine to completion against blocking transport.

    The compatibility shim between the coroutine protocol and the
    thread-parking engines: each yielded request is serviced through the
    communicator's blocking primitives, and transport errors (e.g.
    :class:`~repro.distsim.errors.DeadlockError`) are thrown *into* the
    generator so they surface at the receive call site, exactly as the
    blocking API raises them.
    """
    try:
        request = gen.send(None)
        while True:
            try:
                response = comm._service(request)
            except BaseException as exc:  # noqa: BLE001 - rethrown at the yield
                request = gen.throw(exc)
            else:
                request = gen.send(response)
    except StopIteration as stop:
        return stop.value


def call_rank_program(fn: Callable[..., Any], comm: Communicator, args, kwargs) -> Any:
    """Invoke a rank program that may be plain, a generator, or dual-interface.

    Thread-parking engines call this from each rank's worker: legacy blocking
    functions run as before, while generator-based bodies (including
    :class:`SpmdProgram` wrappers, whose ``__call__`` already drives) are
    driven to completion through :func:`drive`.
    """
    out = fn(comm, *args, **kwargs)
    if inspect.isgenerator(out):
        return drive(comm, out)
    return out


class SpmdProgram:
    """Dual-interface SPMD routine: blocking call or resumable coroutine.

    Wraps a generator function ``gen_fn(comm, *args, **kwargs)`` whose first
    argument is the calling rank's communicator.  Calling the wrapper runs
    the generator to completion against the communicator's blocking transport
    (the historical API, valid on every engine); ``.co(...)`` returns the raw
    generator for engines — or enclosing coroutines — that schedule the
    suspension points themselves (``result = yield from program.co(...)``).
    """

    def __init__(self, gen_fn: Callable[..., Any]) -> None:
        if not inspect.isgeneratorfunction(gen_fn):
            raise TypeError(
                f"SpmdProgram requires a generator function, got {gen_fn!r}"
            )
        self._gen_fn = gen_fn
        functools.update_wrapper(self, gen_fn)

    def co(self, comm: Communicator, *args: Any, **kwargs: Any):
        """The resumable coroutine form (for ``yield from`` composition)."""
        return self._gen_fn(comm, *args, **kwargs)

    def __call__(self, comm: Communicator, *args: Any, **kwargs: Any) -> Any:
        return drive(comm, self._gen_fn(comm, *args, **kwargs))


def spmd_program(gen_fn: Callable[..., Any]) -> SpmdProgram:
    """Decorator form of :class:`SpmdProgram`."""
    return SpmdProgram(gen_fn)


def coroutine_entry(fn: Callable[..., Any]) -> Optional[Callable[..., Any]]:
    """Resolve a rank program to a generator factory, or ``None`` if blocking.

    Returns a callable ``entry(comm, *args, **kwargs)`` producing the rank's
    resumable generator: the function itself for (possibly ``partial``-bound)
    generator functions, the ``.co`` interface for :class:`SpmdProgram`
    wrappers (rebuilding any ``partial`` chain over it).  ``None`` means the
    program is a plain blocking callable and needs an engine that can park.
    """
    target = fn
    wrappers: List[functools.partial] = []
    while isinstance(target, functools.partial):
        wrappers.append(target)
        target = target.func
    if isinstance(target, SpmdProgram):
        entry: Callable[..., Any] = target.co
        for w in reversed(wrappers):
            entry = functools.partial(entry, *w.args, **(w.keywords or {}))
        return entry
    if inspect.isgeneratorfunction(target):
        return fn
    return None


class ExecutionEngine(ABC):
    """Strategy deciding how the ``P`` rank programs are executed.

    Engines are registered in :mod:`repro.distsim.engine` and selected via the
    ``engine=`` argument of :func:`repro.distsim.run_spmd` (or the
    ``REPRO_VMPI_ENGINE`` environment variable).
    """

    #: Registry name of the engine.
    name: str = "abstract"
    #: Whether repeated runs of the same program produce bit-identical traces
    #: *and* identical host-side execution order.
    deterministic: bool = False

    @abstractmethod
    def run(
        self,
        nprocs: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: dict,
        machine: MachineModel,
        timeout: float,
    ) -> RunTrace:
        """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` virtual ranks."""

    # ------------------------------------------------------- shared epilogue
    def _finish_run(
        self,
        traces: List[RankTrace],
        results: List[Any],
        failures: "dict[int, BaseException]",
    ) -> RunTrace:
        """Raise on rank failures, else assemble the run trace.

        When ranks failed for mixed reasons, the chained ``__cause__`` is the
        lowest-ranked *root* failure: DeadlockErrors are secondary whenever a
        rank crashed outright (its crash is what left the others waiting), so
        they are only used as the cause when every failure is a deadlock.
        """
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
        return RunTrace(ranks=traces, results=results, engine=self.name)
