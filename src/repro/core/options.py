"""The configuration subsystem: one precedence rule, one ``SolveConfig``.

Both pluggable subsystems of this package — pivoting strategies
(:mod:`repro.core.strategies`) and distributed-matmul backends
(:mod:`repro.matmul`) — expose one string *knob* resolved against a
registry.  This module holds the machinery they share:

* :class:`UnknownOptionError` — the shared "knob value names no registered
  option" error, raised with the offender and the available choices named.
* :class:`Option` — one generic knob descriptor implementing the shared
  precedence rule::

      explicit value  >  default

  The two knob modules *register* an :class:`Option` at import time and
  keep one function form of it for their hot paths (``resolve_pivoting``,
  ``resolve_matmul``).  A knob is a value passed in; nothing is read from
  process state (there is no ambient override and no knob environment
  variable).  The simulator has one scheduler and the kernels pick their own
  code path, so neither an engine nor a kernel tier is a knob.
* :class:`SolveConfig` — a frozen dataclass bundling everything that
  configures a distributed solve (the two knobs plus grid shape, block size
  ``b``, ``nrhs`` and a machine name).  One ``SolveConfig`` travels through
  the drivers (:mod:`repro.parallel`), the content-addressed stores, the
  serving layer and the CLI, and is the unit the autotuner
  (:mod:`repro.harness.tuning`) searches over.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Iterable, Optional, Tuple


class UnknownOptionError(ValueError):
    """A knob value names no registered option.

    Attributes
    ----------
    kind:
        Human-readable knob kind (``"pivoting strategy"``,
        ``"matmul backend"``).
    name:
        The offending value.
    available:
        The registered option names, as a list.
    """

    def __init__(self, kind: str, name: object, available: Iterable[str]):
        self.kind = kind
        self.name = name
        self.available = list(available)
        super().__init__(f"unknown {kind} {name!r}; available: {self.available}")


# ---------------------------------------------------------------------------
# The generic knob descriptor.

@dataclass(frozen=True)
class Option:
    """One registry-addressed configuration knob.

    Parameters
    ----------
    name:
        Knob name — the :class:`SolveConfig` field it populates
        (``"pivoting"``, ``"matmul"``).
    kind:
        Human-readable kind used in error messages.
    default:
        Value used when no explicit value is given.
    validate:
        Callable mapping a raw value to its canonical registered name,
        raising :class:`UnknownOptionError` otherwise.  The registering
        module supplies it, so registry lookups stay owned by the subsystem.
    """

    name: str
    kind: str
    default: str
    validate: Callable[[str], str]

    def resolve(self, explicit: Optional[str] = None) -> str:
        """Resolve a per-call argument: explicit (validated) > default.

        The default is trusted (it names a registered option by
        construction).
        """
        if explicit is not None:
            return self.validate(explicit)
        return self.default


#: The registered knobs, in the order they appear in keys and reports.
OPTIONS: Dict[str, Option] = {}

#: The knob names every :class:`SolveConfig` carries.
KNOBS = ("pivoting", "matmul")


def register_option(option: Option) -> Option:
    """Register a knob (idempotent per name; last registration wins)."""
    OPTIONS[option.name] = option
    return option


def _load_knob_modules() -> None:
    """Import the two knob modules so their options are registered.

    Lazy so that :mod:`repro.core.options` itself stays import-light (the
    knob modules import it, not the other way around).
    """
    import repro.core.strategies  # noqa: F401
    import repro.matmul  # noqa: F401


# ---------------------------------------------------------------------------
# The first-class configuration object.

@dataclass(frozen=True)
class SolveConfig:
    """Everything that configures one distributed factorization/solve.

    The two registry knobs (``pivoting``, ``matmul``) are always concrete
    resolved names; the layout parameters
    (``grid``, ``b``, ``nrhs``) and the ``machine`` name are optional —
    drivers fall back to their own arguments when a field is ``None``.

    Build one with :meth:`resolve` (fills unset knobs with their defaults)
    rather than the raw constructor, and derive variations with
    :meth:`replace`.  The dataclass is frozen so a config can key caches and
    travel through threads safely.
    """

    pivoting: str
    matmul: str
    grid: Optional[Tuple[int, int]] = None
    b: Optional[int] = None
    nrhs: Optional[int] = None
    machine: Optional[str] = None

    # ------------------------------------------------------------- creation
    @classmethod
    def resolve(
        cls,
        pivoting: Optional[str] = None,
        engine: Optional[str] = None,
        kernel_tier: Optional[str] = None,
        matmul: Optional[str] = None,
        grid: object = None,
        b: Optional[int] = None,
        nrhs: Optional[int] = None,
        machine: Optional[str] = None,
    ) -> "SolveConfig":
        """Build a config, resolving each knob per the shared precedence rule.

        ``grid`` accepts a ``(Pr, Pc)`` tuple, a
        :class:`~repro.layouts.grid.ProcessGrid`, a process count ``P``
        (mapped to the paper's near-square grid) or ``None``.

        ``engine`` and ``kernel_tier`` are no knobs: the simulator has one
        scheduler and the kernels pick their own code path.  They accept
        ``None`` or their one legal value (``"coroutine"``, ``"auto"``;
        ignored) because the end-to-end benchmark
        (``benchmarks/e2e/workloads.py``) still passes them; any other value
        raises :class:`UnknownOptionError`.
        """
        _load_knob_modules()
        if engine not in (None, "coroutine"):
            raise UnknownOptionError("execution engine", engine, ["coroutine"])
        if kernel_tier not in (None, "auto"):
            raise UnknownOptionError("kernel tier", kernel_tier, ["auto"])
        return cls(
            pivoting=OPTIONS["pivoting"].resolve(pivoting),
            matmul=OPTIONS["matmul"].resolve(matmul),
            grid=normalize_grid(grid),
            b=int(b) if b is not None else None,
            nrhs=int(nrhs) if nrhs is not None else None,
            machine=machine,
        )

    def replace(self, **changes: object) -> "SolveConfig":
        """A copy with the given fields replaced (knob values validated)."""
        _load_knob_modules()
        for knob in KNOBS:
            if knob in changes and changes[knob] is not None:
                changes[knob] = OPTIONS[knob].validate(str(changes[knob]))
        if "grid" in changes:
            changes["grid"] = normalize_grid(changes["grid"])
        return replace(self, **changes)

    # ------------------------------------------------------------ accessors
    @property
    def nprow(self) -> Optional[int]:
        return None if self.grid is None else self.grid[0]

    @property
    def npcol(self) -> Optional[int]:
        return None if self.grid is None else self.grid[1]

    @property
    def P(self) -> Optional[int]:
        """Total process count, when the grid shape is set."""
        return None if self.grid is None else self.grid[0] * self.grid[1]

    def process_grid(self):
        """The :class:`~repro.layouts.grid.ProcessGrid` (``None`` if unset)."""
        if self.grid is None:
            return None
        from ..layouts.grid import ProcessGrid

        return ProcessGrid(*self.grid)

    def machine_model(self):
        """The named :class:`~repro.machines.model.MachineModel` (or ``None``).

        ``machine`` names one of the paper's calibrated systems
        (:data:`repro.machines.nersc.MACHINES`); unknown names raise
        :class:`UnknownOptionError`.
        """
        if self.machine is None:
            return None
        from ..machines.nersc import MACHINES

        try:
            return MACHINES[self.machine]()
        except KeyError:
            raise UnknownOptionError(
                "machine", self.machine, sorted(MACHINES)
            ) from None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (JSON-serializable; tuples become lists)."""
        out = asdict(self)
        if out["grid"] is not None:
            out["grid"] = list(out["grid"])
        return out

    def describe(self) -> str:
        """One-line ``key=value`` rendering for status lines and logs."""
        parts = [
            f"pivoting={self.pivoting}",
            f"matmul={self.matmul}",
        ]
        if self.grid is not None:
            parts.append(f"grid={self.grid[0]}x{self.grid[1]}")
        if self.b is not None:
            parts.append(f"b={self.b}")
        if self.nrhs is not None:
            parts.append(f"nrhs={self.nrhs}")
        if self.machine is not None:
            parts.append(f"machine={self.machine}")
        return " ".join(parts)


def normalize_grid(grid: object) -> Optional[Tuple[int, int]]:
    """Normalize a grid argument to a ``(Pr, Pc)`` tuple (or ``None``).

    Accepts ``None``, a ``(Pr, Pc)`` tuple/list, a
    :class:`~repro.layouts.grid.ProcessGrid`, or a process count ``P``
    (mapped to the paper's near-square grid via
    :meth:`~repro.layouts.grid.ProcessGrid.default_for`).
    """
    if grid is None:
        return None
    if isinstance(grid, int):
        from ..layouts.grid import ProcessGrid

        g = ProcessGrid.default_for(grid)
        return (g.nprow, g.npcol)
    nprow = getattr(grid, "nprow", None)
    if nprow is not None:
        return (int(nprow), int(grid.npcol))
    pr, pc = grid  # type: ignore[misc]
    return (int(pr), int(pc))
