"""Tables 3 and 4: PDGETF2 / TSLU time ratios on the two NERSC machines.

The paper measures the panel-factorization speedup for ``m`` from 1e3 to 1e6
rows, ``n = b`` in {50, 100, 150} columns, and 4..64 processes, with the local
factorization done either by the classic kernel (DGETF2, "Cl") or by the
recursive kernel (RGETF2, "Rec").

This reproduction evaluates the same sweep through the analytic cost models
(Equation 1 for TSLU and the column-by-column model for PDGETF2) priced with
the calibrated machine models — the Python substrate cannot time 1e6-row
panels directly, but the model captures the two effects the paper identifies:
the ``b x`` latency reduction and the local-kernel speedup.  A separate
validation benchmark checks the models' message counts against the simulator
on small panels.

Each table is a grid over :func:`repro.experiments.runners.panel_point`, the
single point the ``panel`` spec registers
(:func:`repro.experiments.runners.panel_table`; ``table3`` = IBM POWER5,
``table4`` = Cray XT4, both ``get_spec(name).run(...)``).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..harness import ExperimentSpec, register
from .runners import panel_table

#: The paper's sweep (Tables 3-4).
PAPER_HEIGHTS: Sequence[int] = (1_000, 5_000, 10_000, 100_000, 1_000_000)
PAPER_WIDTHS: Sequence[int] = (50, 100, 150)
PAPER_PROCS: Sequence[int] = (4, 8, 16, 32, 64)

#: Reduced grid used by ``--quick`` smoke runs.
QUICK = {"heights": (10_000, 100_000), "widths": (50,), "procs": (4, 16)}

#: Report columns shared by Tables 3 and 4.
COLUMNS = ("m", "n=b", "P", "ratio_rec", "ratio_cl", "tslu_gflops_rec")


def best_improvement(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The best PDGETF2/TSLU ratio in a sweep (the headline numbers 4.37 / 5.58)."""
    best = max(rows, key=lambda r: max(r["ratio_rec"], r["ratio_cl"]))
    return {
        "m": best["m"],
        "n=b": best["n=b"],
        "P": best["P"],
        "best_ratio": max(best["ratio_rec"], best["ratio_cl"]),
    }


SPEC_TABLE3 = register(
    ExperimentSpec(
        name="table3",
        title="PDGETF2/TSLU panel time ratios, IBM POWER5 (model)",
        runner=panel_table,
        params={"machine": "ibm_power5", "heights": PAPER_HEIGHTS,
                "widths": PAPER_WIDTHS, "procs": PAPER_PROCS},
        quick=QUICK,
        columns=COLUMNS,
        paper_ref="Table 3",
        sweepable=("machine",),
    )
)

SPEC_TABLE4 = register(
    ExperimentSpec(
        name="table4",
        title="PDGETF2/TSLU panel time ratios, Cray XT4 (model)",
        runner=panel_table,
        params={"machine": "cray_xt4", "heights": PAPER_HEIGHTS,
                "widths": PAPER_WIDTHS, "procs": PAPER_PROCS},
        quick=QUICK,
        columns=COLUMNS,
        paper_ref="Table 4",
        sweepable=("machine",),
    )
)
