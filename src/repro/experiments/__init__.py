"""Experiment harness: registered specs, one per table/figure of the paper.

Importing this package registers every built-in experiment into the
:mod:`repro.harness` registry (the CLI and benchmarks do this implicitly via
:func:`repro.harness.load_builtin_specs`).

============  ==============  ===============================================
Experiment    Spec name       Rows: a grid or sample mean over
============  ==============  ===============================================
Figure 1      ``figure1``     the worked example (:mod:`.figure1`)
Figure 2      ``figure2``     the growth point ``stability_prrp`` samples
Table 1       ``table1``      ``stability``'s row, per (n, P, b)
Table 2       ``table2``      GEPP stability rows, sampled
Table 3       ``table3``      ``panel`` on IBM POWER5
Table 4       ``table4``      ``panel`` on Cray XT4
Table 5       ``table5``      ``factorization`` on IBM POWER5
Table 6       ``table6``      ``factorization`` on Cray XT4
Table 7       ``table7``      the best ``factorization`` grid per algorithm
Validation    ``validation``  simulator counts (:mod:`.validation`)
============  ==============  ===============================================

Every row is computed by one function of :mod:`repro.experiments.runners`;
run any of them as ``repro.harness.get_spec(name).run(...)`` or ``python -m
repro run <name>``.  Beyond the paper's grids,
:mod:`repro.experiments.scenarios` registers the sweepable single-point specs
(``stability``, ``stability_prrp``, ``panel``, ``factorization``,
``panel_counts``, ``solve``, ``matmul_tradeoff``) for ``python -m repro
sweep``.
"""

from . import (
    factorization_tables,
    figure1,
    figure2,
    panel_tables,
    runners,
    scenarios,
    table1,
    table2,
    validation,
)
from .report import format_table, rows_to_csv, rows_to_json

__all__ = [
    "figure1",
    "figure2",
    "table1",
    "table2",
    "panel_tables",
    "factorization_tables",
    "runners",
    "scenarios",
    "validation",
    "format_table",
    "rows_to_csv",
    "rows_to_json",
]
