"""Virtual message-passing runtime with α-β-γ cost accounting.

This is the stand-in for MPI + a parallel machine: SPMD rank functions
exchange messages through :class:`~repro.distsim.vmpi.Communicator`, and
every message/word/flop is charged to a per-rank trace priced under a
:class:`~repro.machines.model.MachineModel`.

SPMD programs are generator functions stepped by one deterministic
single-threaded scheduler (:mod:`repro.distsim.engine.coroutine`) that
:func:`run_spmd` calls directly; nothing selects it.  Exactly one rank runs
at a time, the next is always the runnable rank with the smallest
``(simulated clock, rank)``, and deadlock is detected structurally (no rank
runnable ⇒ fail immediately, naming what each rank waits on).  Collectives
are evaluated as single group-level events that charge each rank every
message of the collective's tree; ``tests/test_collectives_closed_form.py``
states those charges in closed form.

**Determinism guarantee** — the simulated quantities (message counts, word
counts, flop counts, per-rank clocks and hence critical-path times) are a
pure function of the rank programs and the machine model: identical across
repeated runs.  The host-side execution order is reproducible too.
"""

from .collectives import allreduce, broadcast, reduce, step
from .errors import DeadlockError, RankFailedError, SimulationError
from .tracing import RankTrace, RunTrace
from .vmpi import Communicator, payload_words, run_spmd

__all__ = [
    "Communicator",
    "run_spmd",
    "payload_words",
    "RankTrace",
    "RunTrace",
    "SimulationError",
    "DeadlockError",
    "RankFailedError",
    "broadcast",
    "reduce",
    "allreduce",
    "step",
]
