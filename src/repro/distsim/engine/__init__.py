"""The execution engine of the virtual MPI and its ``engine`` knob.

One scheduler (:mod:`repro.distsim.engine.coroutine`) runs every SPMD
program, registered as ``"coroutine"``; collectives rendezvous as single
group-level events evaluated centrally (:mod:`repro.distsim.engine.group_ops`),
and the simulated cost model lives in the shared
:class:`~repro.distsim.engine.base.Communicator`.

The knob has one legal value and stays a knob: the frozen end-to-end
benchmark passes ``engine="coroutine"`` to ``SolveConfig.resolve`` and to
store overrides, and the result store and factor cache key the engine name,
so ``SolveConfig.engine``, the specs' ``engine`` parameters,
:func:`resolve_engine` / :func:`resolve_engine_name`, :func:`get_engine` and
:func:`available_engines` keep those keys byte-identical.  Any other name —
``"event"`` included — raises :class:`~repro.distsim.errors.UnknownEngineError`.
The knob is registered into the shared configuration subsystem
(:mod:`repro.core.options`), so it follows the same two-level rule
(explicit > default) as ``pivoting``/``kernel_tier``/``matmul``.
"""

from __future__ import annotations

from typing import Union

from ...core.options import Option, register_option
from ..errors import UnknownEngineError
from .base import CollectiveRequest, Communicator, Envelope, RecvRequest, payload_words
from .coroutine import ExecutionEngine

#: Engine used when no ``engine=`` value is given.
DEFAULT_ENGINE = "coroutine"

_REGISTRY = {"coroutine": ExecutionEngine("coroutine")}


def available_engines() -> list:
    """Names of the registered execution engines."""
    return sorted(_REGISTRY)


def _validate(name: str) -> str:
    """Return ``name`` if registered, else raise.

    Raises :class:`~repro.distsim.errors.UnknownEngineError` (an
    ``UnknownOptionError`` subclass) for unregistered names.
    """
    if name in _REGISTRY:
        return name
    raise UnknownEngineError(name, available_engines())


def get_engine(name: str) -> ExecutionEngine:
    """The engine registered under ``name``."""
    return _REGISTRY[_validate(name)]


#: The engine knob, registered into the shared configuration subsystem
#: (:mod:`repro.core.options`): precedence is explicit > "coroutine".
OPTION = register_option(
    Option(
        name="engine",
        kind="execution engine",
        default=DEFAULT_ENGINE,
        validate=_validate,
    )
)


def resolve_engine_name(
    engine: Union[None, str, ExecutionEngine] = None
) -> str:
    """Resolve an ``engine=`` argument to its registered *name*.

    Instances report their ``name``; strings are validated; ``None`` means
    :data:`DEFAULT_ENGINE`.  This is what keying code (the result store, the
    factor cache) uses, so the recorded name always matches the engine that
    would execute.
    """
    if isinstance(engine, ExecutionEngine):
        return engine.name
    if engine is None or isinstance(engine, str):
        return OPTION.resolve(engine)
    raise TypeError(
        f"engine must be None, a registered name, or an ExecutionEngine; "
        f"got {type(engine).__name__}"
    )


def resolve_engine(
    engine: Union[None, str, ExecutionEngine] = None
) -> ExecutionEngine:
    """Resolve an ``engine=`` argument to an :class:`ExecutionEngine` instance.

    ``None`` means :data:`DEFAULT_ENGINE`; strings are looked up in the
    registry; instances pass through.
    """
    if isinstance(engine, ExecutionEngine):
        return engine
    return get_engine(resolve_engine_name(engine))


__all__ = [
    "CollectiveRequest",
    "Communicator",
    "Envelope",
    "ExecutionEngine",
    "RecvRequest",
    "DEFAULT_ENGINE",
    "payload_words",
    "available_engines",
    "get_engine",
    "resolve_engine",
    "resolve_engine_name",
]
