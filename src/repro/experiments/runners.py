"""The row functions behind the registered specs.

Each measurement has one row function here, and every paper table or figure
is a grid (or a sample mean) over the single-point function its scenario
spec registers:

* Tables 3-4 are a grid over :func:`panel_point` (the ``panel`` spec);
* Tables 5-6 are a grid over :func:`factorization_point` (``factorization``);
  Table 7 takes the best of :func:`repro.models.compare_factorization` over
  the same process grids;
* Table 1 and the ``stability`` spec report :func:`stability_dict` rows;
* Table 2, Figure 2 and ``stability_prrp`` average over
  :func:`sample_matrices`, and Figure 2's ``calu`` rows and
  ``stability_prrp`` share :func:`growth_point`.

The table and figure modules only bind these functions to the paper's
parameter grids.  Machine models are addressed by *name* (``"ibm_power5"``,
``"cray_xt4"``, the names of :data:`repro.machines.MACHINES`) so that spec
parameters stay JSON-serializable and hashable for the content-addressed
result store.  Process counts map to grids by
:meth:`repro.layouts.grid.ProcessGrid.default_for` (the paper's 2x2 .. 8x8
at P = 4 .. 64).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.calu import factorization_error
from ..core.strategies import available_strategies
from ..layouts.grid import ProcessGrid
from ..machines.nersc import get_machine
from ..models.compare import best_vs_best, compare_factorization, compare_panel
from ..randmat.generators import randn
from ..stability.report import (
    StabilityRow,
    recorded_calu,
    stability_row_calu,
    stability_row_gepp,
)

Rows = List[Dict[str, object]]


def grid_rows(point: Callable[..., Rows], *axes: Sequence, **fixed) -> Rows:
    """The rows of ``point`` at every combination of ``axes`` (last fastest)."""
    return [row for args in itertools.product(*axes) for row in point(*args, **fixed)]


def calu_fits(n: int, P: int, b: int) -> bool:
    """Whether CALU(P, b) has a panel to play on an order-``n`` matrix."""
    return b < n and P * b <= n


def sample_matrices(
    n: int, samples: int, seed: int, stride: int = 1000
) -> Iterator[np.ndarray]:
    """The sample matrices ``randn(n, seed + stride * s + n)`` of a sample mean.

    ``samples < 1`` has no mean, so it raises before any matrix is factored.
    """
    check_samples(samples)
    return (randn(n, seed=seed + stride * s + n) for s in range(samples))


def check_samples(samples: int) -> None:
    """Raise ``ValueError`` when ``samples`` is below one: a mean of nothing."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")


# ------------------------------------------------------------------ stability
def stability_dict(row: StabilityRow) -> Dict[str, object]:
    """A stability row as a report row, with its HPL verdict."""
    d = row.as_dict()
    d["hpl_passed"] = row.residuals.passed
    return d


def calu_stability_sweep(
    sweep: Sequence[Tuple[int, Sequence[Tuple[int, int]]]], seed: int = 0
) -> Rows:
    """CALU stability rows over an (n -> [(P, b), ...]) sweep (Table 1)."""
    rows: Rows = []
    for n, configs in sweep:
        A = randn(n, seed=seed + n)
        for P, b in configs:
            if calu_fits(n, P, b):
                rows.append(stability_dict(stability_row_calu(A, P=P, b=b)))
    return rows


def gepp_stability_rows(sizes: Sequence[int], samples: int, seed: int = 0) -> Rows:
    """Sample-averaged GEPP stability rows, one per matrix order (Table 2)."""
    rows: Rows = []
    for n in sizes:
        matrices = sample_matrices(n, samples, seed, stride=7919)
        collected = [stability_row_gepp(A) for A in matrices]
        rows.append(
            {
                "n": n,
                "S": samples,
                "method": "gepp",
                "gT": float(np.mean([r.growth for r in collected])),
                "wb": float(np.mean([r.wb for r in collected])),
                "HPL1": float(np.mean([r.residuals.hpl1 for r in collected])),
                "HPL2": float(np.mean([r.residuals.hpl2 for r in collected])),
                "HPL3": float(np.mean([r.residuals.hpl3 for r in collected])),
                "hpl_passed": all(r.residuals.passed for r in collected),
            }
        )
    return rows


def growth_point(
    n: int, P: int, b: int, samples: int, seed: int,
    pivoting: Optional[str] = None, error: bool = False,
) -> Dict[str, float]:
    """Sample-mean growth and thresholds of recorded ``calu`` at one (n, P, b).

    Mean ``gT``, least ``tau_min`` and mean ``tau_ave`` over
    :func:`sample_matrices`; with ``error``, also the largest factorization
    error ``max_error``.
    """
    gts, tmins, taves, errs = [], [], [], []
    for A in sample_matrices(n, samples, seed):
        res, growth, stats = recorded_calu(A, P, b, pivoting=pivoting)
        gts.append(growth)
        tmins.append(stats.minimum)
        taves.append(stats.average)
        if error:
            errs.append(factorization_error(A, res))
    point = {
        "gT": float(np.mean(gts)),
        "tau_min": float(np.min(tmins)),
        "tau_ave": float(np.mean(taves)),
    }
    if error:
        point["max_error"] = float(np.max(errs))
    return point


def growth_threshold_series(
    sizes: Sequence[int],
    configs: Sequence[Tuple[int, int]],
    samples: int,
    include_gepp: bool,
    seed: int = 0,
) -> Rows:
    """Growth-factor / threshold series for randn matrices (Figure 2)."""
    check_samples(samples)
    rows: Rows = []
    for n in sizes:
        n_two_thirds = float(n) ** (2.0 / 3.0)
        for P, b in configs:
            if calu_fits(n, P, b):
                rows.append({"n": n, "P": P, "b": b, "method": "calu",
                             **growth_point(n, P, b, samples, seed),
                             "n_two_thirds": n_two_thirds})
        if include_gepp:
            gts = [stability_row_gepp(A).growth for A in sample_matrices(n, samples, seed)]
            rows.append({"n": n, "P": 1, "b": n, "method": "gepp",
                         "gT": float(np.mean(gts)), "tau_min": 1.0, "tau_ave": 1.0,
                         "n_two_thirds": n_two_thirds})
    return rows


def stability_point(
    n: int, P: int, b: int, seed: int = 0, method: str = "calu",
    pivoting: str = "ca",
) -> Rows:
    """One stability row at a single (n, P, b) point — the sweepable scenario.

    ``method="calu"`` runs ca-pivoting, ``"gepp"`` the partial-pivoting
    reference (for which P and b are ignored beyond bookkeeping).
    ``pivoting`` selects the panel strategy of the ``"calu"`` method
    (``"pp"``, ``"ca"``, ``"ca_prrp"`` — see :mod:`repro.core.strategies`).
    """
    A = randn(n, seed=seed + n)
    if method == "calu":
        if not calu_fits(n, P, b):
            return []
        row = stability_row_calu(A, P=P, b=b, pivoting=pivoting)
    elif method == "gepp":
        row = stability_row_gepp(A)
    else:
        raise ValueError(f"unknown method {method!r}; use 'calu' or 'gepp'")
    return [{**stability_dict(row), "seed": seed}]


def pivoting_comparison(
    n: int, P: int, b: int, seed: int = 0, samples: int = 1
) -> Rows:
    """Three-way growth/threshold comparison at one (n, P, b) grid point.

    Runs :func:`growth_point` with every registered pivoting strategy
    (``pp``, ``ca``, ``ca_prrp``) on the same random matrices and reports the
    sample-averaged growth factor, threshold statistics and factorization
    error side by side — the CALU vs CALU_PRRP comparison of Khabou et al.
    (arXiv:1208.2451) as a sweepable scenario.  One row per strategy.
    """
    check_samples(samples)
    if not calu_fits(n, P, b):
        return []
    return [
        {"n": n, "P": P, "b": b, "pivoting": strat, "S": samples,
         **growth_point(n, P, b, samples, seed, pivoting=strat, error=True),
         "seed": seed}
        for strat in available_strategies()
    ]


# ------------------------------------------------------------- model points
def panel_point(m: int, b: int, P: int, machine: str = "ibm_power5") -> Rows:
    """PDGETF2/TSLU comparison at one (m, b, P), both local kernels.

    No row when the panel does not fit the process count (fewer rows than
    ``P * b``), mirroring the missing entries of the paper's tables.
    """
    if m < P * b:
        return []
    model = get_machine(machine)
    rec = compare_panel(m, b, P, model, local_kernel="rgetf2")
    cla = compare_panel(m, b, P, model, local_kernel="getf2")
    return [
        {
            "m": m,
            "n=b": b,
            "P": P,
            "ratio_rec": rec.ratio,
            "ratio_cl": cla.ratio,
            "tslu_gflops_rec": rec.tslu_gflops,
            "t_tslu_rec": rec.t_tslu,
            "t_pdgetf2": rec.t_pdgetf2,
        }
    ]


def panel_table(
    machine: str, heights: Sequence[int], widths: Sequence[int], procs: Sequence[int]
) -> Rows:
    """PDGETF2/TSLU ratios for one machine (Tables 3-4)."""
    return grid_rows(panel_point, heights, widths, procs, machine=machine)


def grid_shape(P: int) -> Tuple[int, int]:
    """The ``(Pr, Pc)`` process grid the tables use for ``P`` processes."""
    grid = ProcessGrid.default_for(P)
    return grid.nprow, grid.npcol


def factorization_point(m: int, b: int, P: int, machine: str = "ibm_power5") -> Rows:
    """PDGETRF/CALU comparison at one (m, b, P) on its ``Pr x Pc`` grid.

    No row when the matrix is too small for the grid (the paper leaves
    these entries blank).
    """
    Pr, Pc = grid_shape(P)
    if m < Pr * b or m < Pc * b:
        return []
    model = get_machine(machine)
    cmp_ = compare_factorization(m, b, Pr, Pc, model)
    return [
        {
            "m": m,
            "b": b,
            "P": Pr * Pc,
            "grid": f"{Pr}x{Pc}",
            "improvement": cmp_.ratio,
            "calu_gflops": cmp_.calu_gflops,
            "percent_peak": cmp_.percent_of_peak(model),
            "t_calu": cmp_.t_calu,
            "t_pdgetrf": cmp_.t_pdgetrf,
        }
    ]


def factorization_table(
    machine: str, orders: Sequence[int], blocks: Sequence[int],
    proc_counts: Sequence[int],
) -> Rows:
    """PDGETRF/CALU ratios and CALU GFLOP/s for one machine (Tables 5-6)."""
    return grid_rows(factorization_point, orders, blocks, proc_counts, machine=machine)


def best_vs_best_sweep(
    machines: Sequence[str],
    orders: Sequence[int],
    proc_counts: Sequence[int],
    blocks: Sequence[int],
) -> Rows:
    """Best-CALU vs best-PDGETRF speedups per machine and order (Table 7).

    ``machines`` is a sequence of machine names; a bare name is one machine
    (a sweep over the ``machines`` axis passes one name per job).
    """
    if isinstance(machines, str):
        machines = (machines,)
    grids = [grid_shape(P) for P in proc_counts]
    rows: Rows = []
    for name in machines:
        model = get_machine(name)
        for m in orders:
            rows.append({**best_vs_best(m, model, grids, blocks), "machine": name})
    return rows
