"""The execution engine of the virtual MPI.

One scheduler (:mod:`repro.distsim.engine.coroutine`) runs every SPMD
program; :func:`repro.distsim.run_spmd` calls it directly, and nothing
configures it.  Collectives rendezvous as single group-level events
evaluated centrally (:mod:`repro.distsim.engine.group_ops`), and the
simulated cost model lives in the shared
:class:`~repro.distsim.engine.base.Communicator`.
"""

from __future__ import annotations

from .base import CollectiveRequest, Communicator, Envelope, RecvRequest, payload_words

__all__ = [
    "CollectiveRequest",
    "Communicator",
    "Envelope",
    "RecvRequest",
    "payload_words",
]
