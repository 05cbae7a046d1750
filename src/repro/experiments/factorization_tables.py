"""Tables 5, 6 and 7: PDGETRF / CALU comparisons on the two NERSC machines.

Tables 5-6 report, for square matrices of order 1e3, 5e3 and 1e4, block sizes
50/100/150 and 4..64 processes (grids 2x2 .. 8x8), the time ratio
PDGETRF/CALU ("Impvt") and CALU's GFLOP/s.  Table 7 reports the best-CALU vs
best-PDGETRF speedup when both algorithms are allowed to pick their own best
(P, b).

The rows are produced by the analytic models (Equations 2 and 3) under the
calibrated machine models; a validation benchmark checks the models against
the simulator's measured message counts at small sizes.

Tables 5-6 are a grid over :func:`repro.experiments.runners.factorization_point`,
the single point the ``factorization`` spec registers
(:func:`repro.experiments.runners.factorization_table`; ``table5`` = IBM
POWER5, ``table6`` = Cray XT4).  Table 7
(:func:`repro.experiments.runners.best_vs_best_sweep`) takes the best of the
same comparison over the same process grids.  Address each as
``get_spec(name).run(...)``.
"""

from __future__ import annotations

from typing import Sequence

from ..harness import ExperimentSpec, register
from .runners import best_vs_best_sweep, factorization_table

#: The paper's sweep (Tables 5-6).
PAPER_ORDERS: Sequence[int] = (1_000, 5_000, 10_000)
PAPER_BLOCKS: Sequence[int] = (50, 100, 150)
PAPER_PROC_COUNTS: Sequence[int] = (4, 8, 16, 32, 64)

#: Reduced grid used by ``--quick`` smoke runs.
QUICK = {"orders": (1_000,), "blocks": (50,), "proc_counts": (4, 16)}

#: Report columns shared by Tables 5 and 6.
COLUMNS = ("m", "b", "P", "grid", "improvement", "calu_gflops", "percent_peak")


SPEC_TABLE5 = register(
    ExperimentSpec(
        name="table5",
        title="PDGETRF/CALU time ratio and GFLOP/s, IBM POWER5 (model)",
        runner=factorization_table,
        params={"machine": "ibm_power5", "orders": PAPER_ORDERS,
                "blocks": PAPER_BLOCKS, "proc_counts": PAPER_PROC_COUNTS},
        quick=QUICK,
        columns=COLUMNS,
        paper_ref="Table 5",
        sweepable=("machine",),
    )
)

SPEC_TABLE6 = register(
    ExperimentSpec(
        name="table6",
        title="PDGETRF/CALU time ratio and GFLOP/s, Cray XT4 (model)",
        runner=factorization_table,
        params={"machine": "cray_xt4", "orders": PAPER_ORDERS,
                "blocks": PAPER_BLOCKS, "proc_counts": PAPER_PROC_COUNTS},
        quick=QUICK,
        columns=COLUMNS,
        paper_ref="Table 6",
        sweepable=("machine",),
    )
)

SPEC_TABLE7 = register(
    ExperimentSpec(
        name="table7",
        title="Best-CALU vs best-PDGETRF speedups, both machines (model)",
        runner=best_vs_best_sweep,
        params={"machines": ("ibm_power5", "cray_xt4"), "orders": PAPER_ORDERS,
                "proc_counts": (8, 16, 32, 64), "blocks": PAPER_BLOCKS},
        quick={"orders": (1_000,), "proc_counts": (16, 64), "blocks": (50, 100)},
        columns=("machine", "m", "speedup", "calu_gflops", "calu_P", "calu_b",
                 "calu_percent_peak", "pdgetrf_gflops"),
        paper_ref="Table 7",
        sweepable=("machines",),
    )
)
