"""Distributed row interchanges (ScaLAPACK ``PDLASWP`` analogue).

Rows of a 2-D block-cyclic matrix live on specific grid rows; swapping global
row ``r1`` with global row ``r2`` therefore requires, in every grid column,
the two owning processes to exchange their local segments of those rows.
When both rows live on the same grid row the swap is local and free of
communication.

The paper discusses two implementations: the PDLASWP-style one that performs
"one message exchange for each row swap" (``n log2 Pr`` messages over the
whole factorization) and an improved reduce+broadcast scheme with
``(2n/b) log2 Pr`` messages.  The routine below implements the direct
pairwise exchange (one message per swap per affected process); the analytic
models in :mod:`repro.models` expose both variants so the effect of the
choice can be studied (the ``swap_scheme`` ablation of
``tests/test_models.py::test_calu_swap_scheme_ablation``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..distsim.vmpi import Communicator
from ..layouts.block_cyclic import BlockCyclic2D


def winners_to_swaps(j0: int, winners: Sequence[int]) -> List[Tuple[int, int]]:
    """Convert a list of tournament winners into a sequential swap list.

    The ``i``-th winner must end up in global row ``j0 + i``.  Because earlier
    swaps may have displaced later winners, the swap targets are tracked
    through a position map, exactly as LAPACK's ipiv semantics do.

    Returns a list of ``(target_row, current_row_of_winner)`` pairs to be
    applied in order.
    """
    winners = [int(w) for w in winners]
    # position[original_row] = current location of that row.
    position = {}
    location = {}  # current location -> original row

    def current_of(orig: int) -> int:
        return position.get(orig, orig)

    def orig_at(loc: int) -> int:
        return location.get(loc, loc)

    swaps: List[Tuple[int, int]] = []
    for i, w in enumerate(winners):
        target = j0 + i
        cur = current_of(w)
        if cur == target:
            continue
        swaps.append((target, cur))
        # Swap the occupants of `target` and `cur`.
        a, bb = orig_at(target), orig_at(cur)
        position[a], position[bb] = cur, target
        location[target], location[cur] = bb, a
    return swaps


def apply_swaps_to_permutation(perm: np.ndarray, swaps: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Apply a swap list to a row-permutation bookkeeping vector (in place)."""
    for r1, r2 in swaps:
        if r1 != r2:
            perm[[r1, r2]] = perm[[r2, r1]]
    return perm


def pdlaswp(
    comm: Communicator,
    dist: BlockCyclic2D,
    Aloc: np.ndarray,
    swaps: Sequence[Tuple[int, int]],
    local_col_indices: np.ndarray,
    tag: object,
    channel: str = "col",
) -> None:
    """Apply a sequence of global row swaps to this rank's local columns.

    Parameters
    ----------
    comm:
        The calling rank's communicator.
    dist:
        The block-cyclic distribution describing row/column ownership.
    Aloc:
        This rank's local array (modified in place).
    swaps:
        Ordered ``(row1, row2)`` global row pairs.
    local_col_indices:
        The *local* column indices of ``Aloc`` the swap should touch (e.g.
        only the columns outside the current panel).
    tag:
        Unique tag namespace for this invocation.
    channel:
        Cost channel; row exchanges travel within a process column, hence
        "col" by default.
    """
    myrow, mycol = dist.grid.coords(comm.rank)
    cols = np.asarray(local_col_indices, dtype=np.int64)
    if cols.size == 0:
        # Still participate in no communication: nothing to do.
        return
    for s, (r1, r2) in enumerate(swaps):
        if r1 == r2:
            continue
        gr1 = (r1 // dist.block) % dist.grid.nprow
        gr2 = (r2 // dist.block) % dist.grid.nprow
        if myrow not in (gr1, gr2):
            continue
        l1 = dist.global_to_local_row(r1)
        l2 = dist.global_to_local_row(r2)
        if gr1 == gr2:
            # Both rows on this grid row: purely local swap.  The fancy read
            # already materialises one row segment; the old np.ix_ form
            # gathered and scattered both rows.
            buf = Aloc[l1, cols]
            Aloc[l1, cols] = Aloc[l2, cols]
            Aloc[l2, cols] = buf
            continue
        if myrow == gr1:
            mine, peer_row, my_local = r1, gr2, l1
        else:
            mine, peer_row, my_local = r2, gr1, l2
        peer = dist.grid.rank(peer_row, mycol)
        # The fancy-indexed read is already a fresh array (and ``send``
        # takes its own copy of anything it cannot prove unaliased).
        received = yield from comm.co_sendrecv(
            peer, Aloc[my_local, cols], tag=(tag, "swap", s), channel=channel
        )
        Aloc[my_local, cols] = received
