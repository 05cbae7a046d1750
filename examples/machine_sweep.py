#!/usr/bin/env python
"""Performance-model sweep: regenerate the shapes of Tables 3-7.

Evaluates the paper's analytic runtime models (Equations 1-3) under the
calibrated IBM POWER5 and Cray XT4 machine models through the experiment
registry (the same specs ``python -m repro run table3 ... table7`` uses) and
prints:

* Tables 3-4: the PDGETF2 / TSLU panel-factorization time ratio,
* Tables 5-6: the PDGETRF / CALU time ratio and CALU GFLOP/s,
* Table 7: the best-CALU vs best-PDGETRF speedup per matrix size,
* a latency/bandwidth/flops breakdown for one configuration, showing where
  CALU's advantage comes from,
* a simulator cross-check at the paper's process counts: measured TSLU
  message counts at P = 64..888 on the deterministic virtual-MPI scheduler,
  whose group-level collectives make those process counts tractable in pure
  Python.

Run with::

    python examples/machine_sweep.py
"""

from __future__ import annotations

from repro.experiments import format_table, panel_tables
from repro.experiments.validation import measure_panel_scaling
from repro.harness import get_spec
from repro.machines import ibm_power5
from repro.models import calu_cost, pdgetrf_cost


def main() -> None:
    print("== Table 3 (model): PDGETF2 / TSLU ratio, IBM POWER5 ==")
    rows = get_spec("table3").run({"heights": (10_000, 100_000, 1_000_000)})
    print(format_table(rows, columns=["m", "n=b", "P", "ratio_rec", "ratio_cl"]))
    print("best:", panel_tables.best_improvement(rows))

    print("\n== Table 4 (model): PDGETF2 / TSLU ratio, Cray XT4 ==")
    rows = get_spec("table4").run({"heights": (10_000, 100_000, 1_000_000)})
    print(format_table(rows, columns=["m", "n=b", "P", "ratio_rec", "ratio_cl"]))

    print("\n== Table 5 (model): PDGETRF / CALU, IBM POWER5 ==")
    print(format_table(get_spec("table5").run(), columns=get_spec("table5").columns))

    print("\n== Table 6 (model): PDGETRF / CALU, Cray XT4 ==")
    print(format_table(get_spec("table6").run(), columns=get_spec("table6").columns))

    print("\n== Table 7 (model): best CALU vs best PDGETRF ==")
    rows = get_spec("table7").run()
    print(format_table(rows, columns=["machine", "m", "speedup", "calu_gflops",
                                      "calu_P", "calu_b", "calu_percent_peak"]))

    print("\n== Where the win comes from (m = 1000, b = 50, 8x8 grid, POWER5) ==")
    machine = ibm_power5()
    for name, ledger in (
        ("CALU", calu_cost(1000, 1000, 50, 8, 8)),
        ("PDGETRF", pdgetrf_cost(1000, 1000, 50, 8, 8)),
    ):
        bd = ledger.breakdown(machine)
        print(f"  {name:8s}: arithmetic={bd['arithmetic']:.4e}s  "
              f"latency={bd['latency']:.4e}s  bandwidth={bd['bandwidth']:.4e}s  "
              f"total={bd['total']:.4e}s")

    print("\n== Simulator cross-check: TSLU messages at paper-scale P "
          "(deterministic virtual-MPI scheduler) ==")
    rows = measure_panel_scaling(Ps=(64, 128, 256, 888), b=4, rows_per_rank=8)
    print(format_table(
        rows, columns=["P", "m", "b", "max_messages_per_rank", "expected_log2P"]
    ))


if __name__ == "__main__":
    main()
