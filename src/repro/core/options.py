"""The configuration subsystem: one ``SolveConfig`` over two name tables.

Both pluggable subsystems of this package — pivoting strategies
(:mod:`repro.core.strategies`) and distributed-matmul backends
(:mod:`repro.matmul`) — are one table of names each, with one lookup:
``get_strategy(name=None)`` and ``get_backend(name=None)``.  ``None`` gives
the default; an unknown name raises the shared :class:`UnknownOptionError`,
naming the offender and the available choices.  A knob is a value passed
in; nothing is read from process state (there is no ambient override and no
knob environment variable).  The simulator has one scheduler and the kernels
pick their own code path, so neither an engine nor a kernel tier is a knob.

:class:`SolveConfig` is a frozen dataclass bundling everything that
configures a distributed solve (the two knobs plus grid shape, block size
``b`` and a machine name).  The right-hand-side count is no field: it is
the shape of the ``b`` a solve is called with.  One ``SolveConfig`` travels
through the drivers (:mod:`repro.parallel`), the content-addressed stores,
the serving layer and the CLI, and is the unit the autotuner
(:mod:`repro.harness.tuning`) searches over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Tuple


class UnknownOptionError(ValueError):
    """A knob value names no entry of its table.

    Attributes
    ----------
    kind:
        Human-readable knob kind (``"pivoting strategy"``,
        ``"matmul backend"``).
    name:
        The offending value.
    available:
        The table's names, as a list.
    """

    def __init__(self, kind: str, name: object, available: Iterable[str]):
        self.kind = kind
        self.name = name
        self.available = list(available)
        super().__init__(f"unknown {kind} {name!r}; available: {self.available}")


#: The knob names every :class:`SolveConfig` carries.
KNOBS = ("pivoting", "matmul")


# ---------------------------------------------------------------------------
# The first-class configuration object.

@dataclass(frozen=True)
class SolveConfig:
    """Everything that configures one distributed factorization/solve.

    The two knobs (``pivoting``, ``matmul``) are always concrete table
    names; the layout parameters
    (``grid``, ``b``) and the ``machine`` name are optional —
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
        """Build a config; an unset knob takes its table's default.

        ``grid`` accepts a ``(Pr, Pc)`` tuple, a
        :class:`~repro.layouts.grid.ProcessGrid`, a process count ``P``
        (mapped to the paper's near-square grid) or ``None``.

        ``engine`` and ``kernel_tier`` are no knobs: the simulator has one
        scheduler and the kernels pick their own code path.  They accept
        ``None`` or their one legal value (``"coroutine"``, ``"auto"``;
        ignored) because the end-to-end benchmark
        (``benchmarks/e2e/workloads.py``) still passes them; any other value
        raises :class:`UnknownOptionError`.  ``nrhs`` is accepted and
        ignored for the same reason: the right-hand-side count is the
        shape of the ``b`` a solve is called with.
        """
        from ..matmul import get_backend  # repro.matmul imports this module
        from .strategies import get_strategy

        if engine not in (None, "coroutine"):
            raise UnknownOptionError("execution engine", engine, ["coroutine"])
        if kernel_tier not in (None, "auto"):
            raise UnknownOptionError("kernel tier", kernel_tier, ["auto"])
        return cls(
            pivoting=get_strategy(pivoting).name,
            matmul=get_backend(matmul).name,
            grid=normalize_grid(grid),
            b=int(b) if b is not None else None,
            machine=machine,
        )

    def replace(self, **changes: object) -> "SolveConfig":
        """A copy with the given fields replaced (a ``None`` knob: the default)."""
        from ..matmul import get_backend
        from .strategies import get_strategy

        for knob, lookup in (("pivoting", get_strategy), ("matmul", get_backend)):
            if knob in changes:
                changes[knob] = lookup(changes[knob]).name
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
        (:data:`repro.machines.MACHINES`); unknown names raise
        :class:`UnknownOptionError`.
        """
        if self.machine is None:
            return None
        from ..machines.nersc import get_machine

        return get_machine(self.machine)


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
