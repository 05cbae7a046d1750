"""Declarative experiment specs and the global registry.

Every table/figure of the paper — and every scenario beyond the paper's grid —
is described by one :class:`ExperimentSpec`: a name, a runner callable, the
runner's default parameters (the axes a sweep may override), scaled-down
``quick`` overrides, the preferred report columns, and the paper reference the
spec reproduces.  Specs register themselves into a process-global registry at
import time; the CLI (``python -m repro``), the sweep executor, the result
store, the benchmarks and the tests all address experiments exclusively
through that registry, so a new scenario is one ``register(ExperimentSpec(...))``
call away from the whole tooling.

Runners return a list of row dicts (the same rows the pre-registry
``experiments/<module>.run()`` functions returned — bit-identical, which the
test suite enforces).  Rows are normalized to plain JSON-serializable Python
types on the way out so artifacts round-trip exactly through the store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.options import SolveConfig

#: A runner's output: one dict per row of the reproduced table/figure.
Rows = List[Dict[str, object]]


def jsonify(value: object) -> object:
    """Convert a runner value to plain JSON-serializable Python types.

    numpy scalars/arrays become Python scalars/lists, tuples become lists;
    floats are passed through unchanged (``json`` round-trips Python floats
    bit-for-bit via shortest-repr), so cached rows stay bit-identical.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    return str(value)


def jsonify_rows(rows: Sequence[Mapping[str, object]]) -> Rows:
    """Normalize a runner's row list for storage/reporting."""
    return [{str(k): jsonify(v) for k, v in row.items()} for row in rows]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproducible experiment.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"table1"`` — what the CLI addresses.
    title:
        One-line human description shown by ``repro list``.
    runner:
        Callable accepting exactly the keys of ``params`` but ``engine`` as
        keyword arguments and returning a list of row dicts.
    params:
        Default parameter values.  These are the only overridable axes; an
        unknown override raises, so typos fail loudly.
    quick:
        Overrides applied by ``--quick`` (scaled-down sizes for smoke runs).
    columns:
        Preferred column order for reports (None = natural row order).
    paper_ref:
        Which table/figure of the paper this spec reproduces ("" for
        scenarios beyond the paper).
    sweepable:
        Parameter names that make sense as sweep axes (purely advisory,
        shown by ``repro list``; any param may be swept).

    A configuration knob (``pivoting``, ``matmul``) reaches a runner only
    as a parameter of that name; the store keys and records a knob the spec
    does not take at its default.  An ``engine`` parameter is keyed but never
    run: the simulator has one scheduler, so its one legal value
    (``"coroutine"``) is validated here and kept out of the runner call.
    """

    name: str
    title: str
    runner: Callable[..., Rows]
    params: Mapping[str, object] = field(default_factory=dict)
    quick: Mapping[str, object] = field(default_factory=dict)
    columns: Optional[Tuple[str, ...]] = None
    paper_ref: str = ""
    sweepable: Tuple[str, ...] = ()

    def resolve_params(
        self, overrides: Optional[Mapping[str, object]] = None, quick: bool = False
    ) -> Dict[str, object]:
        """Merge defaults, ``quick`` overrides and explicit overrides."""
        resolved = dict(self.params)
        if quick:
            resolved.update(self.quick)
        for key, value in (overrides or {}).items():
            if key not in self.params:
                raise KeyError(
                    f"spec {self.name!r} has no parameter {key!r}; "
                    f"available: {sorted(self.params)}"
                )
            resolved[key] = value
        if "engine" in resolved:
            SolveConfig.resolve(engine=resolved["engine"])
        return resolved

    def run(
        self, overrides: Optional[Mapping[str, object]] = None, quick: bool = False
    ) -> Rows:
        """Run the spec and return normalized rows."""
        params = self.resolve_params(overrides, quick=quick)
        params.pop("engine", None)
        return jsonify_rows(self.runner(**params))


_REGISTRY: Dict[str, ExperimentSpec] = {}
_LOAD_LOCK = threading.Lock()
_BUILTINS_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` under its name (idempotent on re-import)."""
    _REGISTRY[spec.name] = spec
    return spec


def load_builtin_specs() -> None:
    """Import the modules that register all built-in specs.

    Lazy (and idempotent) so that ``repro.harness`` itself never imports the
    experiment modules at import time — the experiments import the harness to
    register themselves, not the other way around.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _LOAD_LOCK:
        if _BUILTINS_LOADED:
            return
        import repro.experiments  # noqa: F401  (import side effect: registration)
        import repro.harness.tuning  # noqa: F401  (registers the "tune" spec)

        _BUILTINS_LOADED = True


def get_spec(name: str) -> ExperimentSpec:
    """Look up a registered spec by name (loads the built-ins on first use)."""
    load_builtin_specs()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no experiment spec named {name!r}; available: {spec_names()}"
        ) from None


def spec_names() -> List[str]:
    """Sorted names of all registered specs."""
    load_builtin_specs()
    return sorted(_REGISTRY)


def all_specs() -> List[ExperimentSpec]:
    """All registered specs, sorted by name."""
    load_builtin_specs()
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]
