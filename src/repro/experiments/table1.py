"""Table 1: HPL accuracy tests for the ca-pivoting strategy.

For standard-normal matrices of order 2^10..2^13 and a sweep of (P, b), the
paper reports the growth factor ``g_T``, the average and minimum thresholds,
the componentwise backward error ``w_b`` before refinement, and the three HPL
residuals — all of which must pass the HPL criterion (< 16).

Default sizes are reduced to 2^8..2^10 so the sweep runs in seconds; the
original sizes can be requested explicitly.  The rows are
:func:`repro.experiments.runners.calu_stability_sweep` over the grid below;
address them as ``get_spec("table1").run(...)`` / ``python -m repro run
table1``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..harness import ExperimentSpec, register
from .runners import calu_stability_sweep

#: Default (n, P, b) sweep — a scaled version of the paper's Table 1 grid.
DEFAULT_SWEEP: Sequence[Tuple[int, Sequence[Tuple[int, int]]]] = (
    (256, ((8, 16), (4, 16), (4, 32))),
    (512, ((16, 16), (8, 32), (8, 16), (4, 32))),
    (1024, ((16, 32), (16, 16), (8, 32))),
)

#: The paper's own sweep (matrix order -> (P, b) combinations).
PAPER_SWEEP: Sequence[Tuple[int, Sequence[Tuple[int, int]]]] = (
    (8192, ((256, 32), (256, 16), (128, 64), (128, 32), (128, 16), (64, 128), (64, 64), (64, 32), (64, 16))),
    (4096, ((256, 16), (128, 32), (128, 16), (64, 64), (64, 32), (64, 16))),
    (2048, ((128, 16), (64, 32), (64, 16))),
    (1024, ((64, 16),)),
)

#: Tiny sweep used by ``--quick`` smoke runs.
QUICK_SWEEP: Sequence[Tuple[int, Sequence[Tuple[int, int]]]] = (
    (64, ((2, 8), (4, 8))),
    (128, ((4, 16),)),
)


SPEC = register(
    ExperimentSpec(
        name="table1",
        title="HPL accuracy tests for ca-pivoting (CALU)",
        runner=calu_stability_sweep,
        params={"sweep": DEFAULT_SWEEP, "seed": 0},
        quick={"sweep": QUICK_SWEEP},
        columns=("n", "P", "b", "gT", "tau_ave", "tau_min", "wb",
                 "HPL1", "HPL2", "HPL3", "hpl_passed"),
        paper_ref="Table 1",
        sweepable=("seed",),
    )
)
