"""Distributed CALU on a 2-D block-cyclic layout (Section 4 of the paper).

The outer iteration is the shared block right-looking driver of
:mod:`repro.parallel.driver`; the panel factorization is the distributed TSLU
of :mod:`repro.parallel.ptslu`.  Per panel, the processes of the owning grid
column exchange only ``log2 Pr`` messages (the tournament butterfly) instead
of the ``~2 b log2 Pr`` messages of ScaLAPACK's PDGETF2 — the whole point of
the algorithm.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from ..core.options import SolveConfig
from ..core.strategies import get_strategy
from ..distsim.vmpi import Communicator
from ..kernels.flops import FlopCounter
from ..kernels.trsm import trsm_right_upper
from ..layouts.block_cyclic import BlockCyclic2D
from ..scalapack.pdgetf2 import make_pdgetf2_panel
from ..scalapack.pdlaswp import pdlaswp, winners_to_swaps
from .driver import DistributedLUResult, run_block_lu
from .ptslu import ptslu_rank


def make_calu_panel(selector: str = "getf2") -> Callable[..., object]:
    """Create the CALU panel-factorization coroutine for the shared driver.

    The returned callable is a generator function (driven with ``yield
    from``); its return value is the panel's swap list.  The tournament's
    local (leaf) factorizations use the classic ``getf2`` kernel.

    Parameters
    ----------
    selector:
        Tournament selection kernel: ``"getf2"`` (partial-pivoting rows,
        CALU) or ``"rrqr"`` (strong-RRQR rows, CALU_PRRP) — see
        :mod:`repro.core.strategies`.
    """

    def panel(
        comm: Communicator,
        dist: BlockCyclic2D,
        Aloc: np.ndarray,
        j0: int,
        jb: int,
        col_group: List[int],
        tag: object,
    ):
        grid = dist.grid
        myrow, _ = grid.coords(comm.rank)
        my_grows = dist.local_rows(myrow)
        act_mask = my_grows >= j0
        act_grows = my_grows[act_mask]
        act_lrows = np.nonzero(act_mask)[0]
        panel_lcols = dist.block_local_cols(j0, jb)
        local_panel = Aloc[np.ix_(act_lrows, panel_lcols)]

        # Tournament pivoting over the grid column (log2 Pr messages).
        res = yield from ptslu_rank(
            comm,
            act_grows,
            local_panel,
            jb,
            group=col_group,
            channel="col",
            tag=(tag, "tslu"),
            compute_L=False,
            selector=selector,
        )
        winners = res["winners"]
        U = np.asarray(res["U"], dtype=np.float64)
        swaps = winners_to_swaps(j0, winners)

        # Move the winning rows to the top of the panel columns.
        yield from pdlaswp(
            comm, dist, Aloc, swaps, panel_lcols, tag=(tag, "pswap"), channel="col"
        )

        # Second phase of ca-pivoting: with the winners on the diagonal block,
        # the panel is factored without further pivoting.  Locally that means
        # L = A_panel(swapped) U11^{-1}, then packing L (strictly lower) and
        # U11 (diagonal block rows) into the panel columns.
        scratch = FlopCounter()
        swapped = Aloc[np.ix_(act_lrows, panel_lcols)]
        if act_lrows.size:
            k = min(jb, U.shape[0])
            U11 = U[:k, :k]
            L_loc = trsm_right_upper(U11, swapped[:, :k], flops=scratch)
            comm.charge_counter(scratch)
            packed = np.array(L_loc[:, :jb]) if L_loc.shape[1] >= jb else np.pad(
                L_loc, ((0, 0), (0, jb - L_loc.shape[1]))
            )
            # Diagonal-block rows (the leading active rows, which ascend from
            # j0): strictly-lower part is L, the rest is U.
            for i in range(int(np.searchsorted(act_grows, j0 + jb))):
                idx = int(act_grows[i]) - j0
                packed[i, idx:] = U[idx, idx:jb] if idx < U.shape[0] else 0.0
            Aloc[np.ix_(act_lrows, panel_lcols)] = packed
        return swaps

    return panel


def pcalu(A: np.ndarray, config: SolveConfig) -> DistributedLUResult:
    """Distributed LU of ``A`` as configured by ``config``.

    ``config`` is a :class:`~repro.core.options.SolveConfig` whose ``grid``
    and ``b`` give the process grid and block size and whose ``machine``
    names the machine model pricing the run (``None``: the unit machine).
    Its knobs select the panel ``pivoting`` strategy (``"ca"``,
    ``"ca_prrp"`` or ``"pp"``) and the distributed-``matmul`` backend of the
    trailing update (``"summa"`` or ``"caps"``, see :mod:`repro.matmul`).  With ``pivoting="pp"`` the panel
    is ScaLAPACK's column-by-column PDGETF2, so
    ``pcalu(A, config.replace(pivoting="pp"))`` is the PDGETRF baseline.
    Returns the factors in their block-cyclic pieces, the pivot sequence and
    the per-rank communication trace (see
    :class:`~repro.parallel.driver.DistributedLUResult`).
    """
    grid = config.process_grid()
    if grid is None or config.b is None:
        raise ValueError("pcalu needs a config with grid and b set")
    strategy = get_strategy(config.pivoting)
    if strategy.tournament:
        def panel_factory() -> Callable[..., List[Tuple[int, int]]]:
            return make_calu_panel(strategy.selector)
    else:
        panel_factory = make_pdgetf2_panel
    return run_block_lu(
        A,
        grid,
        config.b,
        panel_factory=panel_factory,
        machine=config.machine_model(),
        matmul=config.matmul,
    )
