"""Model-based comparisons between CALU/TSLU and the ScaLAPACK baselines.

These helpers evaluate the analytic cost ledgers under a machine model and
produce exactly the quantities the paper's tables report: time ratios
(PDGETF2/TSLU, PDGETRF/CALU), CALU GFLOP/s, percent of peak, and the
"best vs best" speedups of Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..machines.model import MachineModel
from .calu_model import calu_cost, calu_flops
from .pdgetrf_model import pdgetrf_cost
from .solve_model import solve_cost, solve_message_counts
from .tslu_model import pdgetf2_cost, tslu_cost

#: Effective local-factorization speedup attributed to the recursive kernel
#: (RGETF2) relative to the classic kernel as a function of panel height.
#: Calibrated to the trend of the paper's Tables 3-4: negligible for small
#: panels, roughly 2-4x for panels of 1e5-1e6 rows where the classic,
#: column-by-column kernel becomes memory-bound.
RECURSIVE_SPEEDUP_BY_HEIGHT: Sequence[Tuple[float, float]] = (
    (1.0e3, 1.0),
    (5.0e3, 1.1),
    (1.0e4, 1.3),
    (1.0e5, 2.0),
    (1.0e6, 3.0),
)


def recursive_speedup(m: float) -> float:
    """Interpolated effective speedup of the recursive local kernel for height ``m``."""
    pts = list(RECURSIVE_SPEEDUP_BY_HEIGHT)
    if m <= pts[0][0]:
        return pts[0][1]
    for (m0, s0), (m1, s1) in zip(pts, pts[1:]):
        if m <= m1:
            # log-linear interpolation in m.
            import math

            t = (math.log10(m) - math.log10(m0)) / (math.log10(m1) - math.log10(m0))
            return s0 + t * (s1 - s0)
    return pts[-1][1]


@dataclass
class PanelComparison:
    """PDGETF2 vs TSLU on one panel configuration."""

    m: int
    b: int
    P: int
    local_kernel: str
    t_pdgetf2: float
    t_tslu: float

    @property
    def ratio(self) -> float:
        """Time ratio PDGETF2 / TSLU (the paper's Tables 3-4 entries)."""
        return self.t_pdgetf2 / self.t_tslu if self.t_tslu > 0 else float("inf")

    @property
    def tslu_gflops(self) -> float:
        """TSLU performance counting its total flops (as the paper does)."""
        flops = 2.0 * self.m * self.b * self.b  # factorization done twice
        return flops / self.t_tslu / 1.0e9 if self.t_tslu > 0 else 0.0


def compare_panel(
    m: int,
    b: int,
    P: int,
    machine: MachineModel,
    local_kernel: str = "rgetf2",
) -> PanelComparison:
    """Model-predicted PDGETF2 / TSLU comparison for one (m, b, P) point."""
    speedup = recursive_speedup(m) if local_kernel == "rgetf2" else 1.0
    t_tslu = tslu_cost(m, b, P, local_kernel=local_kernel, local_speedup=speedup).time(machine)
    t_ref = pdgetf2_cost(m, b, P).time(machine)
    return PanelComparison(
        m=m, b=b, P=P, local_kernel=local_kernel, t_pdgetf2=t_ref, t_tslu=t_tslu
    )


@dataclass
class FactorizationComparison:
    """PDGETRF vs CALU on one full-factorization configuration."""

    m: int
    b: int
    Pr: int
    Pc: int
    t_pdgetrf: float
    t_calu: float

    @property
    def P(self) -> int:
        """Total number of processes."""
        return self.Pr * self.Pc

    @property
    def ratio(self) -> float:
        """Time ratio PDGETRF / CALU (the "Impvt" columns of Tables 5-6)."""
        return self.t_pdgetrf / self.t_calu if self.t_calu > 0 else float("inf")

    @property
    def calu_gflops(self) -> float:
        """CALU performance in GFLOP/s counting the useful LU flops."""
        return calu_flops(self.m, self.m) / self.t_calu / 1.0e9 if self.t_calu > 0 else 0.0

    def percent_of_peak(self, machine: MachineModel) -> float:
        """CALU's percent of the aggregate theoretical peak."""
        return machine.percent_of_peak(calu_flops(self.m, self.m), self.t_calu, self.P)


def compare_factorization(
    m: int,
    b: int,
    Pr: int,
    Pc: int,
    machine: MachineModel,
    local_kernel: str = "rgetf2",
    swap_scheme: str = "reduce_broadcast",
) -> FactorizationComparison:
    """Model-predicted PDGETRF / CALU comparison for a square matrix of order ``m``."""
    speedup = recursive_speedup(m) if local_kernel == "rgetf2" else 1.0
    t_calu = calu_cost(
        m, m, b, Pr, Pc, local_speedup=speedup, swap_scheme=swap_scheme
    ).time(machine)
    t_ref = pdgetrf_cost(m, m, b, Pr, Pc).time(machine)
    return FactorizationComparison(m=m, b=b, Pr=Pr, Pc=Pc, t_pdgetrf=t_ref, t_calu=t_calu)


def best_vs_best(
    m: int,
    machine: MachineModel,
    grids: Sequence[Tuple[int, int]],
    block_sizes: Sequence[int],
    local_kernel: str = "rgetf2",
) -> Dict[str, object]:
    """Best-CALU vs best-PDGETRF speedup over a sweep of grids and block sizes (Table 7).

    Returns a dict with the speedup, and for each algorithm the best time,
    GFLOP/s, block size and process count at which it was achieved.
    """
    best_calu: Optional[FactorizationComparison] = None
    best_ref: Optional[Tuple[float, int, int]] = None  # (time, P, b)
    for Pr, Pc in grids:
        for b in block_sizes:
            cmp_ = compare_factorization(m, b, Pr, Pc, machine, local_kernel=local_kernel)
            if best_calu is None or cmp_.t_calu < best_calu.t_calu:
                best_calu = cmp_
            if best_ref is None or cmp_.t_pdgetrf < best_ref[0]:
                best_ref = (cmp_.t_pdgetrf, Pr * Pc, b)
    assert best_calu is not None and best_ref is not None
    flops = calu_flops(m, m)
    return {
        "m": m,
        "speedup": best_ref[0] / best_calu.t_calu,
        "calu_gflops": best_calu.calu_gflops,
        "calu_P": best_calu.P,
        "calu_b": best_calu.b,
        "calu_percent_peak": best_calu.percent_of_peak(machine),
        "pdgetrf_gflops": flops / best_ref[0] / 1.0e9,
        "pdgetrf_P": best_ref[1],
        "pdgetrf_b": best_ref[2],
    }


@dataclass
class SolveValidation:
    """Simulated-vs-analytic comparison of one ``pdgesv`` solve phase.

    ``predicted`` comes from :func:`repro.models.solve_model.solve_message_counts`
    (exact totals), ``measured`` from the solve trace; ``t_analytic`` prices
    :func:`repro.models.solve_model.solve_cost` under the machine model and
    ``t_simulated`` is the trace's critical-path time.
    """

    n: int
    b: int
    Pr: int
    Pc: int
    nrhs: int
    refinements: int
    predicted: Dict[str, float]
    measured: Dict[str, float]
    t_analytic: float
    t_simulated: float

    @property
    def messages_match(self) -> bool:
        """True when every per-channel message total matches exactly."""
        keys = ("messages_col", "messages_row", "messages_any", "total_messages")
        return all(self.measured[k] == self.predicted[k] for k in keys)

    @property
    def time_ratio(self) -> float:
        """Simulated / analytic solve time (1.0 = the model is exact)."""
        if self.t_analytic <= 0.0:
            return float("inf") if self.t_simulated > 0.0 else 1.0
        return self.t_simulated / self.t_analytic


def validate_solve(
    trace,
    n: int,
    b: int,
    Pr: int,
    Pc: int,
    machine: MachineModel,
    nrhs: int = 1,
    refinements: int = 0,
) -> SolveValidation:
    """Check a measured solve trace against the analytic solve model.

    ``trace`` is the solve-phase :class:`~repro.distsim.tracing.RunTrace` of
    :func:`repro.parallel.psolve.pdgesv` (``result.trace``); ``refinements``
    must be the iteration count the run actually performed
    (``result.iterations``) since refinement stops early on convergence.
    """
    predicted = solve_message_counts(n, b, Pr, Pc, nrhs=nrhs, refinements=refinements)
    measured = {
        "messages_col": float(trace.messages_by_channel("col")),
        "messages_row": float(trace.messages_by_channel("row")),
        "messages_any": float(trace.messages_by_channel("any")),
        "total_messages": float(trace.total_messages),
        "words_col": float(trace.words_by_channel("col")),
        "words_row": float(trace.words_by_channel("row")),
        "words_any": float(trace.words_by_channel("any")),
        "total_words": float(trace.total_words),
    }
    t_analytic = solve_cost(n, b, Pr, Pc, nrhs=nrhs, refinements=refinements).time(
        machine
    )
    return SolveValidation(
        n=n,
        b=b,
        Pr=Pr,
        Pc=Pc,
        nrhs=nrhs,
        refinements=refinements,
        predicted=predicted,
        measured=measured,
        t_analytic=t_analytic,
        t_simulated=trace.critical_path_time,
    )


@dataclass
class MatmulValidation:
    """Simulated-vs-analytic comparison of one distributed ``pdgemm``.

    ``predicted`` comes from the backend's analytic ledger
    (:func:`repro.models.matmul_model.summa_message_counts` or
    :func:`repro.models.matmul_model.caps_message_counts`), ``measured``
    from the run trace.  Unlike :class:`SolveValidation` the *word* totals
    are asserted too: both ledgers are exact, not just message-exact.
    """

    backend: str
    m: int
    k: int
    n: int
    P: int
    predicted: Dict[str, float]
    measured: Dict[str, float]
    lower_bound_words_per_proc: float

    @property
    def messages_match(self) -> bool:
        """True when every per-channel message total matches exactly."""
        keys = ("messages_col", "messages_row", "messages_any", "total_messages")
        return all(self.measured[k] == self.predicted[k] for k in keys)

    @property
    def words_match(self) -> bool:
        """True when every per-channel word total matches exactly."""
        keys = ("words_col", "words_row", "words_any", "total_words")
        return all(self.measured[k] == self.predicted[k] for k in keys)

    @property
    def above_lower_bound(self) -> bool:
        """True when measured words/processor respects the bandwidth floor."""
        return (
            self.measured["total_words"] / self.P >= self.lower_bound_words_per_proc
            or self.measured["total_words"] == 0.0
        )


def validate_matmul(
    trace,
    backend: str,
    m: int,
    k: int,
    n: int,
    grid,
    block_size: int = 16,
) -> MatmulValidation:
    """Check a measured ``pdgemm`` trace against the backend's exact ledger.

    ``trace`` is the :class:`~repro.distsim.tracing.RunTrace` of
    :func:`repro.matmul.pdgemm` (``result.trace``); ``grid`` the
    :class:`~repro.layouts.grid.ProcessGrid` the product ran on.  The lower
    bound attached is the one the backend is held to: Strassen's
    ``(mkn)^{2/3} / P^{2/log2(7)}`` for ``caps``, the classical
    ``(mkn)^{2/3} / P^{2/3}`` otherwise.
    """
    from .matmul_model import (
        caps_message_counts,
        classical_lower_bound_words,
        strassen_lower_bound_words,
        summa_message_counts,
    )

    P = grid.size
    if backend == "caps":
        predicted = caps_message_counts(m, k, n, P)
        bound = strassen_lower_bound_words(m, k, n, P)
    else:
        predicted = summa_message_counts(
            m, k, n, grid.nprow, grid.npcol, block_size
        )
        bound = classical_lower_bound_words(m, k, n, P)
    measured = {
        "messages_col": float(trace.messages_by_channel("col")),
        "messages_row": float(trace.messages_by_channel("row")),
        "messages_any": float(trace.messages_by_channel("any")),
        "total_messages": float(trace.total_messages),
        "words_col": float(trace.words_by_channel("col")),
        "words_row": float(trace.words_by_channel("row")),
        "words_any": float(trace.words_by_channel("any")),
        "total_words": float(trace.total_words),
    }
    return MatmulValidation(
        backend=backend,
        m=m,
        k=k,
        n=n,
        P=P,
        predicted=predicted,
        measured=measured,
        lower_bound_words_per_proc=bound,
    )
