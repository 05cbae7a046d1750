"""Table 2: HPL accuracy tests for LU with partial pivoting (the GEPP reference).

Same metrics as Table 1, computed with Gaussian elimination with partial
pivoting, averaged over a small number of samples per size.  CALU's values
(Table 1) should be of the same order of magnitude.  The rows are
:func:`repro.experiments.runners.gepp_stability_rows`: a sample mean over
``samples >= 1`` matrices per order (``get_spec("table2").run(...)``).
"""

from __future__ import annotations

from typing import Sequence

from ..harness import ExperimentSpec, register
from .runners import gepp_stability_rows

#: Default matrix orders (scaled down from the paper's 2^10..2^13).
DEFAULT_SIZES: Sequence[int] = (256, 512, 1024)

#: Samples per size (the paper uses 5-10).
DEFAULT_SAMPLES = 3


SPEC = register(
    ExperimentSpec(
        name="table2",
        title="HPL accuracy tests for partial pivoting (GEPP)",
        runner=gepp_stability_rows,
        params={"sizes": DEFAULT_SIZES, "samples": DEFAULT_SAMPLES, "seed": 0},
        quick={"sizes": (64, 128), "samples": 1},
        columns=("n", "S", "gT", "wb", "HPL1", "HPL2", "HPL3", "hpl_passed"),
        paper_ref="Table 2",
        sweepable=("samples", "seed"),
    )
)
