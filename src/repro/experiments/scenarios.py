"""Sweepable single-point scenario specs — beyond the paper's fixed grids.

The paper's tables pin specific (n, P, b) grids; these specs expose the same
underlying measurements as *single points* so that ``repro sweep`` can build
arbitrary grids over them, e.g.::

    python -m repro sweep stability --param P=4,16,64 --param b=8,32
    python -m repro sweep panel --param m=10000,100000 --param P=16,64
    python -m repro sweep panel_counts --param P=2,4,8 --set m=256

Each scenario returns one (or a few) rows per parameter combination; the
sweep executor expands the cartesian product, runs the jobs concurrently and
caches every point in the content-addressed store, so refining a sweep only
computes the new points.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..harness import ExperimentSpec, register
from ..harness.store import KEYED_ENGINE
from .runners import (
    factorization_point,
    panel_point,
    pivoting_comparison,
    stability_point,
)
from .validation import measure_panel_counts


def panel_counts(m: int = 128, b: int = 8, P: int = 4) -> List[Dict[str, object]]:
    """Measured TSLU panel message counts on the simulator (one row)."""
    return [measure_panel_counts(m=m, b=b, P=P)]


def solve_point(
    n: int = 96,
    P: int = 4,
    b: int = 16,
    nrhs: int = 2,
    seed: int = 0,
    pivoting: str = "ca",
    refine: int = 2,
) -> List[Dict[str, object]]:
    """End-to-end distributed solve at one (n, P, b, nrhs) point (one row).

    Runs :func:`repro.parallel.psolve.pdgesv` (factor + permute + two
    distributed triangular solves + distributed iterative refinement) on a
    random system with a known solution, cross-checks against the sequential
    :func:`repro.core.solve.calu_solve` on the same seed/pivoting, and
    validates the measured solve-phase message counts against
    :func:`repro.models.solve_model.solve_message_counts`.
    """
    from ..core.options import SolveConfig
    from ..core.solve import calu_solve
    from ..layouts.grid import ProcessGrid
    from ..machines.model import unit_machine
    from ..models.compare import validate_solve
    from ..parallel.psolve import pdgesv
    from ..randmat.generators import randn

    if b >= n:
        return []
    grid = ProcessGrid.default_for(P)
    A = randn(n, seed=seed + n)
    x_true = randn(n, nrhs, seed=seed + 7919)
    rhs = A @ x_true
    config = SolveConfig.resolve(pivoting=pivoting, grid=grid, b=b)
    res = pdgesv(A, rhs, config, refine=refine)
    seq = calu_solve(
        A, rhs, block_size=b, nblocks=grid.nprow, refine=refine, pivoting=pivoting
    )
    check = validate_solve(
        res.trace,
        n,
        b,
        grid.nprow,
        grid.npcol,
        unit_machine(),
        nrhs=nrhs,
        refinements=res.iterations,
    )
    return [
        {
            "n": n,
            "P": P,
            "grid": f"{grid.nprow}x{grid.npcol}",
            "b": b,
            "nrhs": nrhs,
            "pivoting": pivoting,
            "iterations": res.iterations,
            "residual": res.residual_norms[-1],
            "wb": res.backward_errors[-1],
            "max_abs_error": float(np.max(np.abs(res.x - x_true))),
            "vs_sequential": float(np.max(np.abs(res.x - seq.x))),
            "solve_messages": check.measured["total_messages"],
            "model_messages": check.predicted["total_messages"],
            "messages_match": check.messages_match,
            "time_ratio": check.time_ratio,
            "seed": seed,
        }
    ]


def matmul_tradeoff(
    n: int = 64,
    P: int = 49,
    b: int = 8,
    matmul: str = "summa",
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Words/messages trade-off of one distributed ``C += A B`` (one row).

    Runs the requested backend's standalone :func:`repro.matmul.pdgemm` on an
    ``n x n`` product over ``P`` ranks, checks the numerical result against
    the dense product, validates the measured per-channel message *and* word
    totals against the backend's exact analytic ledger
    (:mod:`repro.models.matmul_model`), and reports the words moved next to
    the Strassen bandwidth lower bound ``(n^3)^{2/3} / P^{2/log2 7}`` — the
    floor CAPS attains and classical schedules cannot.
    """
    from ..layouts.grid import ProcessGrid
    from ..machines.model import unit_machine
    from ..matmul import pdgemm
    from ..models.compare import validate_matmul
    from ..models.matmul_model import strassen_lower_bound_words
    from ..randmat.generators import randn

    grid = ProcessGrid.default_for(P)
    A = randn(n, seed=seed + n)
    B = randn(n, seed=seed + n + 104729)
    result = pdgemm(
        A, B, grid=grid, block_size=b, matmul=matmul, machine=unit_machine()
    )
    max_abs_error = float(np.max(np.abs(result.C - A @ B)))
    check = validate_matmul(
        result.trace, matmul, n, n, n, grid, block_size=b
    )
    return [
        {
            "n": n,
            "P": P,
            "grid": f"{grid.nprow}x{grid.npcol}",
            "b": b,
            "matmul": matmul,
            "max_abs_error": max_abs_error,
            "messages": check.measured["total_messages"],
            "words": check.measured["total_words"],
            "model_messages": check.predicted["total_messages"],
            "model_words": check.predicted["total_words"],
            "messages_match": check.messages_match,
            "words_match": check.words_match,
            "words_per_proc": check.measured["total_words"] / grid.size,
            "lower_bound_words_per_proc": strassen_lower_bound_words(
                n, n, n, grid.size
            ),
            "seed": seed,
        }
    ]


SPEC_STABILITY = register(
    ExperimentSpec(
        name="stability",
        title="Stability point: growth/thresholds/HPL at one (n, P, b)",
        runner=stability_point,
        params={"n": 256, "P": 8, "b": 16, "seed": 0, "method": "calu",
                "pivoting": "ca"},
        quick={"n": 64, "P": 2, "b": 8},
        columns=("n", "P", "b", "method", "gT", "tau_ave", "tau_min", "wb",
                 "HPL1", "HPL2", "HPL3", "hpl_passed", "seed"),
        sweepable=("n", "P", "b", "seed", "method", "pivoting"),
    )
)

SPEC_STABILITY_PRRP = register(
    ExperimentSpec(
        name="stability_prrp",
        title="Pivoting-strategy comparison: pp vs ca vs ca_prrp growth at one (n, P, b)",
        runner=pivoting_comparison,
        params={"n": 1024, "P": 32, "b": 32, "seed": 0, "samples": 1},
        quick={"n": 64, "P": 2, "b": 8},
        columns=("n", "P", "b", "pivoting", "S", "gT", "tau_min", "tau_ave",
                 "max_error", "seed"),
        paper_ref="arXiv:1208.2451 (CALU_PRRP follow-up)",
        sweepable=("n", "P", "b", "seed", "samples"),
    )
)

SPEC_PANEL = register(
    ExperimentSpec(
        name="panel",
        title="Panel-model point: PDGETF2/TSLU ratio at one (m, b, P, machine)",
        runner=panel_point,
        params={"m": 100_000, "b": 50, "P": 16, "machine": "ibm_power5"},
        quick={"m": 10_000},
        columns=("m", "n=b", "P", "ratio_rec", "ratio_cl", "tslu_gflops_rec"),
        sweepable=("m", "b", "P", "machine"),
    )
)

SPEC_FACTORIZATION = register(
    ExperimentSpec(
        name="factorization",
        title="Factorization-model point: PDGETRF/CALU at one (m, b, P, machine)",
        runner=factorization_point,
        params={"m": 1_000, "b": 50, "P": 16, "machine": "ibm_power5"},
        quick={},
        columns=("m", "b", "P", "grid", "improvement", "calu_gflops", "percent_peak"),
        sweepable=("m", "b", "P", "machine"),
    )
)

SPEC_SOLVE = register(
    ExperimentSpec(
        name="solve",
        title="End-to-end distributed solve: pdgesv accuracy + solve-model validation",
        runner=solve_point,
        params={"n": 96, "P": 4, "b": 16, "nrhs": 2, "seed": 0,
                "pivoting": "ca", "refine": 2, "engine": KEYED_ENGINE},
        quick={"n": 48, "P": 2, "b": 8, "nrhs": 1},
        columns=("n", "P", "grid", "b", "nrhs", "pivoting", "iterations",
                 "residual", "wb", "max_abs_error", "vs_sequential",
                 "solve_messages", "model_messages", "messages_match",
                 "time_ratio", "seed"),
        paper_ref="Section 6.1 (HPL accuracy on the solution of Ax=b)",
        sweepable=("n", "P", "b", "nrhs", "seed", "pivoting"),
    )
)

SPEC_MATMUL_TRADEOFF = register(
    ExperimentSpec(
        name="matmul_tradeoff",
        title="Distributed matmul point: SUMMA vs CAPS words/messages trade-off",
        runner=matmul_tradeoff,
        params={"n": 64, "P": 49, "b": 8, "matmul": "summa",
                "engine": KEYED_ENGINE, "seed": 0},
        quick={"n": 32, "P": 7, "b": 4},
        columns=("n", "P", "grid", "b", "matmul", "max_abs_error", "messages",
                 "words", "model_messages", "model_words", "messages_match",
                 "words_match", "words_per_proc", "lower_bound_words_per_proc",
                 "seed"),
        paper_ref="arXiv:1202.3173 (CAPS)",
        sweepable=("n", "P", "b", "matmul", "seed"),
    )
)

SPEC_PANEL_COUNTS = register(
    ExperimentSpec(
        name="panel_counts",
        title="Simulator point: measured TSLU panel message counts",
        runner=panel_counts,
        params={"m": 128, "b": 8, "P": 4, "engine": KEYED_ENGINE},
        quick={"m": 64, "b": 4},
        columns=("m", "b", "P", "max_messages_per_rank", "expected_log2P",
                 "max_words_per_rank"),
        sweepable=("m", "b", "P"),
    )
)
