"""Per-rank communication/computation traces.

The whole point of the reproduction is to measure *communication* — the
number of messages and words each process sends, the arithmetic it performs,
and the resulting critical-path time under a machine model.  Every virtual
rank owns a :class:`RankTrace`; the runtime aggregates them into a
:class:`RunTrace` whose fields line up with the terms of Equations (1)-(3) of
the paper (latency term = messages, bandwidth term = words, flop terms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..kernels.flops import FlopCounter


@dataclass
class RankTrace:
    """Counters and simulated clock for a single virtual process.

    Attributes
    ----------
    rank:
        The process's linear rank.
    messages_sent / messages_received:
        Message counts.  A collective charges every message of its
        communication tree, so its cost is captured here too.
    words_sent / words_received:
        8-byte words moved (numpy payloads count their size; small control
        payloads count a fixed overhead of 1 word).
    messages_by_channel / words_by_channel:
        Split of the send counters by communication channel ("col" for
        messages within a process column, "row" for within a process row,
        "any" otherwise) — the paper prices these with different
        latency/bandwidth parameters (``α_c, β_c`` vs ``α_r, β_r``).
    flops:
        Arithmetic performed by this rank.
    clock:
        Simulated time (seconds under the run's machine model) at which the
        rank has finished everything it has done so far.
    zero_copy_sends:
        Always 0; kept because ``benchmarks/e2e`` reads it.
    group_collectives:
        Number of collectives this rank completed as a single group-level
        event (see :mod:`repro.distsim.engine.group_ops`).  Purely
        diagnostic and *not* part of :meth:`RunTrace.summary`; kept because
        the frozen end-to-end benchmark reports it as
        ``distsim.group_collectives``.
    """

    rank: int
    messages_sent: int = 0
    messages_received: int = 0
    words_sent: float = 0.0
    words_received: float = 0.0
    messages_by_channel: Dict[str, int] = field(default_factory=dict)
    words_by_channel: Dict[str, float] = field(default_factory=dict)
    flops: FlopCounter = field(default_factory=FlopCounter)
    clock: float = 0.0
    zero_copy_sends: int = 0
    group_collectives: int = 0

    def record_send(self, words: float, channel: str) -> None:
        """Record one outgoing message of ``words`` 8-byte words."""
        self.messages_sent += 1
        self.words_sent += words
        self.messages_by_channel[channel] = self.messages_by_channel.get(channel, 0) + 1
        self.words_by_channel[channel] = self.words_by_channel.get(channel, 0.0) + words

    def record_recv(self, words: float) -> None:
        """Record one incoming message of ``words`` 8-byte words."""
        self.messages_received += 1
        self.words_received += words


@dataclass
class RunTrace:
    """Aggregate view over all ranks of one SPMD run.

    Attributes
    ----------
    ranks:
        The per-rank traces, indexed by rank.
    results:
        The values returned by each rank's SPMD function.
    engine:
        Name of the execution engine that produced this trace
        ("coroutine"); empty for hand-built traces.
    """

    ranks: List[RankTrace]
    results: List[object] = field(default_factory=list)
    engine: str = ""

    @property
    def nprocs(self) -> int:
        """Number of ranks that took part in the run."""
        return len(self.ranks)

    @property
    def total_messages(self) -> int:
        """Total messages sent by all ranks."""
        return sum(t.messages_sent for t in self.ranks)

    @property
    def total_words(self) -> float:
        """Total words sent by all ranks."""
        return sum(t.words_sent for t in self.ranks)

    @property
    def max_messages(self) -> int:
        """Maximum messages sent by any single rank (latency critical path proxy)."""
        return max((t.messages_sent for t in self.ranks), default=0)

    @property
    def max_words(self) -> float:
        """Maximum words sent by any single rank (bandwidth critical path proxy)."""
        return max((t.words_sent for t in self.ranks), default=0.0)

    @property
    def critical_path_time(self) -> float:
        """Simulated wall-clock time: the largest per-rank clock."""
        return max((t.clock for t in self.ranks), default=0.0)

    @property
    def total_flops(self) -> float:
        """Total arithmetic (muladds + divides) over all ranks."""
        return sum(t.flops.total for t in self.ranks)

    @property
    def total_group_collectives(self) -> int:
        """Collectives delivered as single group-level events (diagnostic).

        Kept out of :meth:`summary`; the frozen end-to-end benchmark reports
        it as ``distsim.group_collectives``.
        """
        return sum(t.group_collectives for t in self.ranks)

    @property
    def max_flops(self) -> float:
        """Maximum arithmetic performed by any rank."""
        return max((t.flops.total for t in self.ranks), default=0.0)

    def messages_by_channel(self, channel: str) -> int:
        """Total messages sent over a given channel ("row", "col", "any")."""
        return sum(t.messages_by_channel.get(channel, 0) for t in self.ranks)

    def words_by_channel(self, channel: str) -> float:
        """Total words sent over a given channel."""
        return sum(t.words_by_channel.get(channel, 0.0) for t in self.ranks)

    def summary(self) -> Dict[str, float]:
        """Dictionary summary convenient for tabular reporting."""
        return {
            "nprocs": self.nprocs,
            "total_messages": self.total_messages,
            "max_messages": self.max_messages,
            "total_words": self.total_words,
            "max_words": self.max_words,
            "total_flops": self.total_flops,
            "max_flops": self.max_flops,
            "critical_path_time": self.critical_path_time,
        }
