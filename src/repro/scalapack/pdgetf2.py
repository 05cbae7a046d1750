"""Simulated ScaLAPACK panel factorization (``PDGETF2``).

This is the baseline CALU is compared against.  The panel (block-column) is
distributed by rows over the ``Pr`` processes of one grid column; partial
pivoting is performed *column by column*:

for each of the ``b`` columns,

1. every process finds the largest entry among the rows it owns and an
   all-reduce over the grid column determines the global pivot (``log2 Pr``
   message steps);
2. the pivot row is swapped with the diagonal row (one exchange between the
   two owning processes);
3. the owner of the (new) diagonal row broadcasts the pivot row's trailing
   segment down the grid column (``log2 Pr`` steps);
4. every process scales its local sub-column and applies the rank-1 update to
   its local trailing panel columns.

That is ``~2 b log2 Pr`` messages per panel — the latency bottleneck the
paper identifies (its Section 1: "2 n log2 Pr messages" over the whole
factorization), versus TSLU's ``log2 Pr``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

import numpy as np

from ..distsim.collectives import allreduce, broadcast
from ..distsim.vmpi import Communicator
from ..kernels.flops import FlopCounter
from ..layouts.block_cyclic import BlockCyclic2D
from .indexing import is_contiguous_range
from .pdlaswp import pdlaswp


def _maxloc(a: Tuple[float, float, int], b: Tuple[float, float, int]) -> Tuple[float, float, int]:
    """All-reduce operator: keep the entry with the largest magnitude.

    Ties are broken towards the smallest global row index so the pivot choice
    matches sequential partial pivoting exactly.
    """
    if (a[0], -a[2]) >= (b[0], -b[2]):
        return a
    return b


def make_pdgetf2_panel() -> Callable[..., Iterator]:
    """Create the PDGETF2 panel coroutine for the shared block-LU driver.

    The returned callable is a generator function (driven with ``yield
    from``); its return value is the panel's swap list.
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
        myrow, mycol = grid.coords(comm.rank)
        my_grows = dist.local_rows(myrow)
        panel_lcols = dist.block_local_cols(j0, jb)
        swaps: List[Tuple[int, int]] = []
        scratch = FlopCounter()

        for jc in range(jb):
            gcol = j0 + jc
            lcol = panel_lcols[jc]

            # --- pivot search: local max then column-wise all-reduce (maxloc).
            act_mask = my_grows >= gcol
            act_lrows = np.nonzero(act_mask)[0]
            act_grows = my_grows[act_mask]
            if act_lrows.size:
                colvals = Aloc[act_lrows, lcol]
                li = int(np.argmax(np.abs(colvals)))
                cand = (float(abs(colvals[li])), float(colvals[li]), int(act_grows[li]))
                comm.charge_flops(comparisons=float(act_lrows.size - 1))
            else:
                cand = (-1.0, 0.0, 1 << 60)
            best = yield from allreduce(
                comm, cand, _maxloc, group=col_group, tag=(tag, "amax", jc), channel="col"
            )
            pivot_row = best[2]

            # --- swap the pivot row into the diagonal position (panel columns).
            if pivot_row != gcol and best[0] > 0.0:
                swaps.append((gcol, pivot_row))
                yield from pdlaswp(
                    comm,
                    dist,
                    Aloc,
                    [(gcol, pivot_row)],
                    panel_lcols,
                    tag=(tag, "swap", jc),
                    channel="col",
                )

            # --- broadcast the pivot row's trailing segment down the column.
            owner_grow = (gcol // dist.block) % grid.nprow
            root = grid.rank(owner_grow, mycol)
            if comm.rank == root:
                lrow = dist.global_to_local_row(gcol)
                seg = Aloc[lrow, panel_lcols[jc:]].copy()
            else:
                seg = None
            seg = yield from broadcast(
                comm, seg, root=root, group=col_group, tag=(tag, "prow", jc), channel="col"
            )
            pivot_val = float(seg[0])

            # --- local elimination below the pivot.
            below_mask = my_grows > gcol
            bl = np.nonzero(below_mask)[0]
            if bl.size and pivot_val != 0.0:
                mult = Aloc[bl, lcol] / pivot_val
                Aloc[bl, lcol] = mult
                scratch.add_divides(float(bl.size))
                if jc + 1 < jb:
                    sub = panel_lcols[jc + 1 :]
                    if is_contiguous_range(bl) and is_contiguous_range(sub):
                        # Contiguous local ranges: rank-1 update in place on
                        # a view, no fancy-index gather + scatter.
                        Aloc[bl[0] : bl[-1] + 1, sub[0] : sub[-1] + 1] -= np.outer(
                            mult, seg[1:]
                        )
                    else:
                        Aloc[np.ix_(bl, sub)] -= np.outer(mult, seg[1:])
                    scratch.add_muladds(2.0 * bl.size * (jb - jc - 1))
                comm.charge_counter(scratch)
        return swaps

    return panel

