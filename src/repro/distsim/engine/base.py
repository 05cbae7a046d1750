"""The rank-side half of the virtual MPI: communicator, requests, cost accounting.

All cost accounting — words per payload, clock advancement for arithmetic
and messages, the per-rank trace counters — lives here in
:class:`Communicator`.  Every simulated quantity is therefore computed from
the rank program's own sequence of calls; the scheduler
(:mod:`repro.distsim.engine.coroutine`) only decides which rank runs next.

``send`` copies numpy payloads defensively, so a sender mutating its buffer
after the call cannot race the receiver.

The coroutine protocol
----------------------
A rank program is a generator function ``prog(comm, *args)``.  ``send``
never blocks in this simulator, so a receive is the only suspension point:
the program yields a :class:`RecvRequest` (via :meth:`Communicator.co_recv`)
or a :class:`CollectiveRequest` (via :mod:`repro.distsim.collectives`) and
the scheduler resumes it with the matched envelope / collective result.  Programs compose with plain
``yield from``: ``value = yield from broadcast(comm, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...kernels.flops import FlopCounter
from ...machines.model import MachineModel
from ..tracing import RankTrace


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

    The scheduler resumes the coroutine with the matched :class:`Envelope`;
    all receive-side accounting stays inside :meth:`Communicator.co_recv`.
    """

    source: int
    tag: Any


@dataclass
class CollectiveRequest:
    """Yielded by a rank coroutine to join a single group-level collective.

    The scheduler rendezvouses all ``len(group)`` participants on one event
    keyed by ``(kind, group, tag, channel, rootpos)`` and evaluates the
    collective centrally with exact per-rank cost attribution
    (:mod:`repro.distsim.engine.group_ops`); the coroutine is resumed with
    its rank's result.
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
    machine, not to the host: an operator written in this form lets the
    central evaluation of a group collective compute each distinct
    application once and charge the returned :class:`FlopCounter` to every
    rank that would have performed it, so ledgers and clocks are unchanged.

    Subclasses implement :meth:`combine` and may override :meth:`finish`;
    neither may modify its operands, and what they return is shared between
    ranks.
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


class Communicator:
    """Handle through which a rank communicates and charges costs.

    The interface intentionally mirrors a small subset of mpi4py:
    :meth:`send`, :meth:`co_recv`, plus collective operations provided as
    free functions in :mod:`repro.distsim.collectives`.

    ``deliver(dest, envelope)`` is the scheduler's transport.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        machine: MachineModel,
        trace: RankTrace,
        deliver: Callable[[int, Envelope], None],
    ) -> None:
        self._rank = rank
        self._size = size
        self._machine = machine
        self._trace = trace
        self._deliver = deliver
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
            mutation by the sender cannot race the receiver.
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
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        words = payload_words(payload)
        cost = self._machine.message_time(words, channel)
        self._trace.record_send(words, channel)
        self._trace.clock += cost
        env = Envelope(
            source=self._rank,
            tag=tag,
            payload=payload,
            words=words,
            available_at=self._trace.clock,
        )
        self._deliver(dest, env)

    def co_recv(self, source: int, tag: Any = 0):
        """Receive from ``source``: ``payload = yield from comm.co_recv(...)``.

        Yields a :class:`RecvRequest` and is resumed with the matched
        envelope.  The rank's simulated clock is advanced to at least the
        time at which the message became available on the sender's side.
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
        """Exchange messages with a partner (send to ``dest``, receive from ``source``).

        ``source`` defaults to ``dest`` — the pairwise row exchange of
        ``pdlaswp``.  The send part never blocks.
        """
        if source is None:
            source = dest
        self.send(dest, payload, tag=tag, channel=channel)
        return (yield from self.co_recv(source, tag=tag))
