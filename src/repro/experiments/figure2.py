"""Figure 2: growth factor and minimum threshold versus matrix size.

The paper plots, for standard-normal matrices of order 2^10..2^13 and several
(P, b) combinations, the average Trefethen-Schreiber growth factor ``g_T`` of
ca-pivoting (left plot — it tracks ``c · n^(2/3)`` with c ≈ 1.5, like partial
pivoting) and the minimum pivot threshold (right plot — always above 0.33).

``get_spec("figure2").run(...)`` regenerates both series through
:func:`repro.experiments.runners.growth_threshold_series`: per (n, P, b), the
mean ``g_T``, least ``tau_min`` and mean ``tau_ave`` over ``samples >= 1``
random matrices (the paper uses two for the largest sizes), plus the
partial-pivoting reference curve when ``include_gepp``.  Default sizes are
reduced (2^8..2^10) so the experiment completes in seconds in pure Python;
pass ``sizes=(1024, 2048, 4096, 8192)`` to match the paper exactly (minutes
of runtime).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..harness import ExperimentSpec, register
from .runners import growth_threshold_series

#: (P, b) combinations of the paper's Figure 2, scaled for small default sizes.
DEFAULT_CONFIGS: Sequence[Tuple[int, int]] = ((4, 16), (4, 32), (8, 16), (8, 32), (16, 16))

#: Default matrix orders (scaled down from the paper's 2^10..2^13).
DEFAULT_SIZES: Sequence[int] = (256, 512, 1024)


SPEC = register(
    ExperimentSpec(
        name="figure2",
        title="Growth factor g_T and pivot thresholds vs matrix size",
        runner=growth_threshold_series,
        params={"sizes": DEFAULT_SIZES, "configs": DEFAULT_CONFIGS,
                "samples": 2, "include_gepp": True, "seed": 0},
        quick={"sizes": (64, 128), "configs": ((2, 8), (4, 8)), "samples": 1},
        columns=("n", "P", "b", "method", "gT", "n_two_thirds", "tau_min", "tau_ave"),
        paper_ref="Figure 2",
        sweepable=("samples", "seed"),
    )
)
