#!/usr/bin/env python
"""Run distributed CALU and ScaLAPACK PDGETRF side by side on the simulator.

Both algorithms factor the same matrix on the same virtual process grid; the
script reports, per algorithm, the backward error, the per-rank message and
word counts, and the simulated critical-path time under the IBM POWER5 and
Cray XT4 machine models — i.e. a miniature, executable version of the paper's
comparison, small enough to run in seconds in pure Python.

The simulator is deterministic, so repeated invocations produce bit-identical
traces; build the config with ``SolveConfig.resolve(engine="event")`` to
cross-check the point-to-point evaluation of the collectives.

Run with::

    python examples/parallel_simulation.py [n] [block_size] [Pr] [Pc]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.options import SolveConfig
from repro.parallel import pcalu
from repro.randmat import randn


def run_once(A, config, label):
    rows = []
    # PDGETRF is the same driver with partial-pivoting (PDGETF2) panels.
    for name, pivoting in (("CALU", config.pivoting), ("PDGETRF", "pp")):
        res = pcalu(A, config.replace(pivoting=pivoting))
        err = float(np.max(np.abs(A[res.perm, :] - res.L @ res.U)))
        rows.append(
            {
                "algorithm": name,
                "max msgs/rank": res.trace.max_messages,
                "total words": int(res.trace.total_words),
                "crit. path": res.trace.critical_path_time,
                "backward err": err,
            }
        )
    print(f"\n-- {label} --")
    for r in rows:
        print(
            f"  {r['algorithm']:8s} msgs/rank={r['max msgs/rank']:<6} "
            f"words={r['total words']:<8} time={r['crit. path']:.6g} "
            f"err={r['backward err']:.2e}"
        )
    speedup = rows[1]["crit. path"] / rows[0]["crit. path"]
    print(f"  PDGETRF / CALU time ratio: {speedup:.2f}")


def main(n: int = 96, b: int = 8, pr: int = 2, pc: int = 4) -> None:
    print(f"Distributed LU comparison: n={n}, b={b}, grid={pr}x{pc}")
    A = randn(n, seed=7)
    config = SolveConfig.resolve(grid=(pr, pc), b=b)
    run_once(A, config, "unit-latency machine (counts message steps)")
    run_once(A, config.replace(machine="ibm_power5"), "IBM POWER5 model")
    run_once(A, config.replace(machine="cray_xt4"), "Cray XT4 model")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:5]]
    main(*args)
