"""Machine performance models (the α, β, γ of the paper's cost model).

The paper estimates runtimes with a classic latency/bandwidth/flop model
(Section 3): sending ``w`` words costs ``α + w·β`` seconds, a multiply/add
costs ``γ``, a division costs ``γ_d``, and collectives over ``P`` processes
take ``log2(P)`` identical steps.  Section 4 additionally allows different
latency/bandwidth along process-grid columns (``α_c, β_c``) and rows
(``α_r, β_r``) to model hierarchical machines.

:class:`MachineModel` carries those parameters.  The same object is consumed
by the virtual-MPI simulator (to advance per-rank clocks) and by the analytic
models of :mod:`repro.models` (to evaluate Equations (1)-(3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class MachineModel:
    """Parameters of the α-β-γ machine model.

    Attributes
    ----------
    name:
        Human-readable machine name.
    gamma:
        Seconds per multiply/add floating point operation (effective, i.e.
        already including the fraction of peak a tuned BLAS reaches).
    gamma_d:
        Seconds per division.
    gamma_cmp:
        Seconds per comparison (pivot searches).  ``None`` (the default)
        means comparisons cost the same as a multiply/add (``γ``), matching
        the convention that a pivot search runs at the machine's scalar
        flop rate.
    alpha:
        Point-to-point message latency in seconds (default channel).
    beta:
        Seconds per 8-byte word transferred (inverse bandwidth, default
        channel).
    alpha_row / beta_row:
        Latency / inverse bandwidth for messages between processes in the
        same grid *row* (different nodes in a hierarchical machine).  Default
        to ``alpha`` / ``beta``.
    alpha_col / beta_col:
        Latency / inverse bandwidth for messages within a grid *column*.
        Default to ``alpha`` / ``beta``.
    peak_flops_per_proc:
        Theoretical peak of one processor in flop/s — used only to report
        "percent of peak" columns, never to compute times.
    """

    name: str
    gamma: float
    gamma_d: float
    alpha: float
    beta: float
    alpha_row: Optional[float] = None
    beta_row: Optional[float] = None
    alpha_col: Optional[float] = None
    beta_col: Optional[float] = None
    gamma_cmp: Optional[float] = None
    peak_flops_per_proc: float = 0.0
    notes: str = ""

    def __post_init__(self) -> None:
        if min(self.gamma, self.gamma_d, self.alpha, self.beta) < 0:
            raise ValueError("machine parameters must be non-negative")
        # The optional per-channel overrides of a hierarchical machine must be
        # validated too, or a mistyped alpha_row/beta_col produces negative
        # simulated times instead of an error at construction.
        for name in ("alpha_row", "beta_row", "alpha_col", "beta_col", "gamma_cmp"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"machine parameter {name} must be non-negative")

    # Channel-resolved accessors -------------------------------------------------
    def latency(self, channel: str = "any") -> float:
        """Message latency for a channel ("row", "col" or "any")."""
        if channel == "row" and self.alpha_row is not None:
            return self.alpha_row
        if channel == "col" and self.alpha_col is not None:
            return self.alpha_col
        return self.alpha

    def inv_bandwidth(self, channel: str = "any") -> float:
        """Per-word transfer time for a channel ("row", "col" or "any")."""
        if channel == "row" and self.beta_row is not None:
            return self.beta_row
        if channel == "col" and self.beta_col is not None:
            return self.beta_col
        return self.beta

    def message_time(self, words: float, channel: str = "any") -> float:
        """Time to send a message of ``words`` 8-byte words: ``α + w·β``."""
        return self.latency(channel) + words * self.inv_bandwidth(channel)

    def comparison_time(self) -> float:
        """Seconds per comparison: ``γ_cmp``, defaulting to ``γ``."""
        return self.gamma if self.gamma_cmp is None else self.gamma_cmp

    def compute_time(
        self, muladds: float, divides: float = 0.0, comparisons: float = 0.0
    ) -> float:
        """Time for ``muladds·γ + divides·γ_d + comparisons·γ_cmp``."""
        t = muladds * self.gamma + divides * self.gamma_d
        if comparisons:
            t += comparisons * self.comparison_time()
        return t

    def percent_of_peak(self, flops: float, seconds: float, nprocs: int) -> float:
        """Percent of aggregate theoretical peak achieved by ``flops`` in ``seconds``."""
        if seconds <= 0.0 or self.peak_flops_per_proc <= 0.0 or nprocs <= 0:
            return 0.0
        achieved = flops / seconds
        return 100.0 * achieved / (self.peak_flops_per_proc * nprocs)


def unit_machine() -> MachineModel:
    """A machine where a message costs 1 and arithmetic/bandwidth are free.

    With this model the simulated critical-path time equals the number of
    message steps on the critical path, which is convenient in unit tests of
    the communication structure.
    """
    return MachineModel(
        name="unit-latency",
        gamma=0.0,
        gamma_d=0.0,
        alpha=1.0,
        beta=0.0,
        notes="alpha=1, everything else free; for counting message steps",
    )
