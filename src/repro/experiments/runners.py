"""Shared experiment runners behind the registered specs.

Before the registry refactor every ``experiments/table*.py`` module carried
its own copy of the same three loops (stability sweep, panel-model sweep,
factorization-model sweep).  This module is the single home of that plumbing;
the table/figure modules are now thin declarative wrappers that bind a runner
to the paper's parameter grid and register the result as an
:class:`~repro.harness.spec.ExperimentSpec`.

Machine models are addressed by *name* here (``"ibm_power5"``, ``"cray_xt4"``,
the names of :data:`repro.machines.MACHINES`) so that spec parameters stay
JSON-serializable and hashable for the content-addressed result store.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..machines.model import MachineModel
from ..machines.nersc import get_machine
from ..models.compare import (
    PAPER_GRIDS,
    best_vs_best,
    compare_factorization,
    compare_panel,
)
from ..randmat.generators import randn
from ..stability.report import stability_row_calu, stability_row_gepp

Rows = List[Dict[str, object]]


def resolve_machine(machine: Union[str, MachineModel]) -> MachineModel:
    """Resolve a machine name (or pass a model through)."""
    if isinstance(machine, MachineModel):
        return machine
    return get_machine(machine)


# ------------------------------------------------------------ stability sweeps
def calu_stability_sweep(
    sweep: Sequence[Tuple[int, Sequence[Tuple[int, int]]]], seed: int = 0
) -> Rows:
    """CALU stability rows over an (n -> [(P, b), ...]) sweep (Table 1)."""
    rows: Rows = []
    for n, configs in sweep:
        A = randn(n, seed=seed + n)
        for P, b in configs:
            if b >= n or P * b > n:
                continue
            row = stability_row_calu(A, P=P, b=b)
            d = row.as_dict()
            d["hpl_passed"] = row.residuals.passed
            rows.append(d)
    return rows


def gepp_stability_rows(sizes: Sequence[int], samples: int, seed: int = 0) -> Rows:
    """Averaged GEPP stability rows, one per matrix order (Table 2)."""
    rows: Rows = []
    for n in sizes:
        collected = []
        for s in range(samples):
            A = randn(n, seed=seed + 7919 * s + n)
            collected.append(stability_row_gepp(A))
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


def growth_threshold_series(
    sizes: Sequence[int],
    configs: Sequence[Tuple[int, int]],
    samples: int,
    include_gepp: bool,
    seed: int = 0,
) -> Rows:
    """Growth-factor / threshold series for randn matrices (Figure 2)."""
    rows: Rows = []
    for n in sizes:
        for P, b in configs:
            if b >= n or P * b > n:
                continue
            gts, tmins, taves = [], [], []
            for s in range(samples):
                A = randn(n, seed=seed + 1000 * s + n)
                row = stability_row_calu(A, P=P, b=b)
                gts.append(row.growth)
                tmins.append(row.tau_min)
                taves.append(row.tau_ave)
            rows.append(
                {
                    "n": n,
                    "P": P,
                    "b": b,
                    "method": "calu",
                    "gT": float(np.mean(gts)),
                    "tau_min": float(np.min(tmins)),
                    "tau_ave": float(np.mean(taves)),
                    "n_two_thirds": float(n) ** (2.0 / 3.0),
                }
            )
        if include_gepp:
            gts = []
            for s in range(samples):
                A = randn(n, seed=seed + 1000 * s + n)
                row = stability_row_gepp(A)
                gts.append(row.growth)
            rows.append(
                {
                    "n": n,
                    "P": 1,
                    "b": n,
                    "method": "gepp",
                    "gT": float(np.mean(gts)),
                    "tau_min": 1.0,
                    "tau_ave": 1.0,
                    "n_two_thirds": float(n) ** (2.0 / 3.0),
                }
            )
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
        if b >= n or P * b > n:
            return []
        row = stability_row_calu(A, P=P, b=b, pivoting=pivoting)
    elif method == "gepp":
        row = stability_row_gepp(A)
    else:
        raise ValueError(f"unknown method {method!r}; use 'calu' or 'gepp'")
    d = row.as_dict()
    d["hpl_passed"] = row.residuals.passed
    d["seed"] = seed
    return [d]


def pivoting_comparison(
    n: int, P: int, b: int, seed: int = 0, samples: int = 1
) -> Rows:
    """Three-way growth/threshold comparison at one (n, P, b) grid point.

    Runs ``calu`` with every registered pivoting strategy (``pp``, ``ca``,
    ``ca_prrp``) on the same random matrices and reports the sample-averaged
    growth factor, threshold statistics and factorization error side by side
    — the CALU vs CALU_PRRP comparison of Khabou et al. (arXiv:1208.2451) as
    a sweepable scenario.  One row per strategy.
    """
    from ..core.calu import calu, factorization_error
    from ..core.strategies import available_strategies
    from ..stability.growth import trefethen_schreiber_growth
    from ..stability.threshold import threshold_stats

    if b >= n or P * b > n:
        return []
    rows: Rows = []
    for strat in available_strategies():
        gts, tmins, taves, errs = [], [], [], []
        for s in range(samples):
            A = randn(n, seed=seed + 1000 * s + n)
            res = calu(
                A,
                block_size=b,
                nblocks=P,
                pivoting=strat,
                track_growth=True,
                compute_thresholds=True,
            )
            gts.append(trefethen_schreiber_growth(A, res.growth_history))
            stats = threshold_stats(res.threshold_history)
            tmins.append(stats.minimum)
            taves.append(stats.average)
            errs.append(factorization_error(A, res))
        rows.append(
            {
                "n": n,
                "P": P,
                "b": b,
                "pivoting": strat,
                "S": samples,
                "gT": float(np.mean(gts)),
                "tau_min": float(np.min(tmins)),
                "tau_ave": float(np.mean(taves)),
                "max_error": float(np.max(errs)),
                "seed": seed,
            }
        )
    return rows


# ------------------------------------------------------------- model sweeps
def panel_ratio_sweep(
    machine: Union[str, MachineModel],
    heights: Sequence[int],
    widths: Sequence[int],
    procs: Sequence[int],
) -> Rows:
    """PDGETF2/TSLU ratio sweep for one machine (Tables 3-4)."""
    model = resolve_machine(machine)
    rows: Rows = []
    for m in heights:
        for b in widths:
            for P in procs:
                if m < P * b:
                    continue
                rows.append(panel_point_row(m, b, P, model))
    return rows


def panel_point_row(
    m: int, b: int, P: int, machine: Union[str, MachineModel]
) -> Dict[str, object]:
    """One PDGETF2/TSLU comparison row (both local kernels)."""
    model = resolve_machine(machine)
    rec = compare_panel(m, b, P, model, local_kernel="rgetf2")
    cla = compare_panel(m, b, P, model, local_kernel="getf2")
    return {
        "m": m,
        "n=b": b,
        "P": P,
        "ratio_rec": rec.ratio,
        "ratio_cl": cla.ratio,
        "tslu_gflops_rec": rec.tslu_gflops,
        "t_tslu_rec": rec.t_tslu,
        "t_pdgetf2": rec.t_pdgetf2,
    }


def panel_point(
    m: int, b: int, P: int, machine: str = "ibm_power5"
) -> Rows:
    """Sweepable single-point version of the panel-ratio comparison."""
    if m < P * b:
        return []
    return [panel_point_row(m, b, P, machine)]


def factorization_sweep(
    machine: Union[str, MachineModel],
    orders: Sequence[int],
    blocks: Sequence[int],
    proc_counts: Sequence[int],
) -> Rows:
    """PDGETRF/CALU sweep for one machine (Tables 5-6)."""
    model = resolve_machine(machine)
    rows: Rows = []
    for m in orders:
        for b in blocks:
            for P in proc_counts:
                Pr, Pc = PAPER_GRIDS[P]
                if m < Pr * b or m < Pc * b:
                    # The paper leaves these entries blank (matrix too small).
                    continue
                rows.append(factorization_point_row(m, b, Pr, Pc, model))
    return rows


def factorization_point_row(
    m: int, b: int, Pr: int, Pc: int, machine: Union[str, MachineModel]
) -> Dict[str, object]:
    """One PDGETRF/CALU comparison row on a ``Pr x Pc`` grid."""
    model = resolve_machine(machine)
    cmp_ = compare_factorization(m, b, Pr, Pc, model)
    return {
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


def factorization_point(
    m: int, b: int, P: int, machine: str = "ibm_power5"
) -> Rows:
    """Sweepable single-point version of the PDGETRF/CALU comparison."""
    Pr, Pc = PAPER_GRIDS[P]
    if m < Pr * b or m < Pc * b:
        return []
    return [factorization_point_row(m, b, Pr, Pc, machine)]


def best_vs_best_sweep(
    machines: Union[Sequence[str], Dict[str, MachineModel]],
    orders: Sequence[int],
    proc_counts: Sequence[int],
    blocks: Sequence[int],
) -> Rows:
    """Best-CALU vs best-PDGETRF speedups per machine and order (Table 7).

    ``machines`` is a sequence of machine names, or (for API compatibility
    with the pre-registry ``run_table7``) a mapping of name to model.
    """
    grids: List[Tuple[int, int]] = [PAPER_GRIDS[p] for p in proc_counts]
    if isinstance(machines, dict):
        items = list(machines.items())
    else:
        items = [(name, resolve_machine(name)) for name in machines]
    rows: Rows = []
    for name, model in items:
        for m in orders:
            entry = best_vs_best(m, model, grids, blocks)
            entry["machine"] = name
            rows.append(entry)
    return rows
