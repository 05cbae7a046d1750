"""Model-vs-simulator validation (the ``validation`` spec of ``repro run``).

The performance tables (3-7) are generated from the paper's analytic cost
formulas.  This module checks those formulas against the *measured*
communication of the SPMD implementations running on the virtual-MPI
simulator, at sizes small enough to execute in Python:

* TSLU must send exactly ``log2 P`` messages per process per panel;
* PDGETF2 must send ``Θ(b log2 P)`` messages per panel;
* over a full factorization, CALU's per-process message count must be lower
  than PDGETRF's by roughly a factor ``b`` (up to the swap-scheme constant).

These measurements run on the virtual-MPI engine (:mod:`repro.distsim.engine`),
which makes them reproducible bit for bit and keeps process counts in the
thousands tractable; its collectives charge exactly the messages of their
trees (``tests/test_collectives_closed_form.py`` states them in closed form).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from ..core.options import SolveConfig
from ..distsim.engine import DEFAULT_ENGINE
from ..harness import ExperimentSpec, register
from ..machines.model import unit_machine
from ..parallel.pcalu import pcalu
from ..parallel.ptslu import ptslu
from ..randmat.generators import randn


def measure_panel_counts(
    m: int = 128, b: int = 8, P: int = 4, engine: str = DEFAULT_ENGINE
) -> Dict[str, float]:
    """Measured per-rank message counts of one TSLU panel on the simulator."""
    A = randn(m, b, seed=11)
    res = ptslu(A, nprocs=P, layout="block", machine=unit_machine(), engine=engine)
    return {
        "m": m,
        "b": b,
        "P": P,
        "max_messages_per_rank": res.trace.max_messages,
        # The butterfly costs exactly log2(P) steps at powers of two and
        # floor(log2 P) + 1 = ceil(log2 P) otherwise (fold + inner butterfly).
        "expected_log2P": math.ceil(math.log2(P)),
        "max_words_per_rank": res.trace.max_words,
    }


def measure_panel_scaling(
    Ps: Sequence[int] = (64, 128, 256, 888),
    b: int = 4,
    rows_per_rank: int = 8,
    engine: str = DEFAULT_ENGINE,
) -> List[Dict[str, float]]:
    """TSLU panel message counts at the paper's process counts (64..888).

    The matrix height grows with ``P`` so every rank keeps ``rows_per_rank``
    rows, as in a weak scaling experiment.
    """
    rows = []
    for P in Ps:
        rows.append(
            measure_panel_counts(m=P * rows_per_rank, b=b, P=P, engine=engine)
        )
    return rows


def measure_factorization_counts(
    n: int = 64, b: int = 8, Pr: int = 2, Pc: int = 2, engine: str = DEFAULT_ENGINE
) -> List[Dict[str, float]]:
    """Measured message counts of CALU vs PDGETRF on the same small problem."""
    A = randn(n, seed=13)
    config = SolveConfig.resolve(engine=engine, grid=(Pr, Pc), b=b)
    calu_res = pcalu(A, config)
    ref_res = pcalu(A, config.replace(pivoting="pp"))
    rows = []
    for name, res in (("calu", calu_res), ("pdgetrf", ref_res)):
        err = float(np.max(np.abs(A[res.perm, :] - res.L @ res.U)))
        rows.append(
            {
                "algorithm": name,
                "n": n,
                "b": b,
                "grid": f"{Pr}x{Pc}",
                "total_messages": res.trace.total_messages,
                "max_messages_per_rank": res.trace.max_messages,
                "total_words": res.trace.total_words,
                "critical_path_steps": res.trace.critical_path_time,
                "factorization_error": err,
            }
        )
    return rows


def run(
    panel_m: int = 128,
    panel_b: int = 8,
    panel_P: int = 4,
    fact_n: int = 64,
    fact_b: int = 8,
    fact_Pr: int = 2,
    fact_Pc: int = 2,
    engine: str = DEFAULT_ENGINE,
) -> List[Dict[str, object]]:
    """Registry runner: panel + factorization measurements in one row set.

    The ``record`` column distinguishes the TSLU panel measurement (one row)
    from the CALU-vs-PDGETRF factorization measurements (one row per
    algorithm).
    """
    rows: List[Dict[str, object]] = [
        {"record": "tslu_panel",
         **measure_panel_counts(m=panel_m, b=panel_b, P=panel_P, engine=engine)}
    ]
    for row in measure_factorization_counts(
        n=fact_n, b=fact_b, Pr=fact_Pr, Pc=fact_Pc, engine=engine
    ):
        rows.append({"record": "factorization", **row})
    return rows


SPEC = register(
    ExperimentSpec(
        name="validation",
        title="Model-vs-simulator validation: measured message counts",
        runner=run,
        params={"panel_m": 128, "panel_b": 8, "panel_P": 4,
                "fact_n": 64, "fact_b": 8, "fact_Pr": 2, "fact_Pc": 2,
                "engine": DEFAULT_ENGINE},
        quick={"panel_m": 64, "panel_b": 4, "fact_n": 32},
        columns=("record", "algorithm", "m", "n", "b", "P", "grid",
                 "max_messages_per_rank", "expected_log2P", "total_messages",
                 "total_words", "max_words_per_rank", "critical_path_steps",
                 "factorization_error"),
        paper_ref="Section 5 (model validation)",
        sweepable=("panel_P", "panel_b", "engine"),
    )
)
