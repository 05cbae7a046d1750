"""Pluggable panel-pivoting strategies: partial, ca, and ca+PRRP pivoting.

The paper's argument is a trade: tournament (ca-)pivoting buys a factor ``b``
of latency over partial pivoting at the price of a modestly larger growth
factor.  Khabou-Demmel-Grigori-Gu (arXiv:1208.2451) sharpen the trade by
replacing the partial-pivoting selection inside the tournament with a strong
rank-revealing QR of the transposed block (CALU_PRRP), bounding the growth by
``(1 + 2b)^(n/b)``.  This module makes the pivoting choice a knob: one table of
names, :data:`STRATEGIES`, with one lookup, :func:`get_strategy` — exactly
like the matmul backends (:mod:`repro.matmul`):

``"pp"``
    Partial pivoting on the whole panel (GEPP panels).  The communication
    baseline: distributed, this is ScaLAPACK's PDGETF2 (``~2 b log2 Pr``
    messages per panel).

``"ca"`` (the default)
    The paper's ca-pivoting tournament with partial-pivoting selection at the
    leaves and merge nodes.  This is the seed behaviour — every recorded
    stability quantity stays bit-identical to it.

``"ca_prrp"``
    The tournament with strong-RRQR selection (:mod:`repro.kernels.rrqr`) at
    the leaves and merge nodes, then the panel factored without further
    pivoting — CALU_PRRP.  Same communication pattern as ``"ca"`` (one
    reduction over the grid column), strictly better growth bound.

Selected per call (``pivoting=`` on ``calu``, ``tslu``, ``ptslu`` and the
stability reports; ``SolveConfig.pivoting`` for ``pcalu``); an unset value
means ``"ca"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .options import UnknownOptionError


@dataclass(frozen=True)
class PivotingStrategy:
    """Declarative description of one pivoting strategy.

    Attributes
    ----------
    name:
        Registry key (what the ``pivoting=`` knob accepts).
    title:
        One-line human description.
    tournament:
        True when panel pivots are chosen by a reduction-tree tournament
        (``log2 P`` messages per panel); False for column-by-column partial
        pivoting (``~2 b log2 P`` messages).
    selector:
        Selection kernel at the tournament leaves/merge nodes: ``"getf2"``
        (partial-pivoting rows) or ``"rrqr"`` (strong-RRQR rows); ``None``
        for non-tournament strategies.
    growth_bound:
        Worst-case growth factor bound, for documentation/reports.
    reference:
        Where the strategy comes from.
    """

    name: str
    title: str
    tournament: bool
    selector: Optional[str]
    growth_bound: str
    reference: str


STRATEGIES: Dict[str, PivotingStrategy] = {
    "pp": PivotingStrategy(
        name="pp",
        title="partial pivoting (GEPP panels, the communication baseline)",
        tournament=False,
        selector=None,
        growth_bound="2^(n-1)",
        reference="LAPACK GETF2 / ScaLAPACK PDGETF2",
    ),
    "ca": PivotingStrategy(
        name="ca",
        title="ca-pivoting tournament with partial-pivoting selection (CALU)",
        tournament=True,
        selector="getf2",
        growth_bound="2^(n(log2(P)+1)) worst case, ~1.5 n^(2/3) observed",
        reference="Grigori-Demmel-Xiang, SC'08 (the reproduced paper)",
    ),
    "ca_prrp": PivotingStrategy(
        name="ca_prrp",
        title="ca-pivoting tournament with strong-RRQR selection (CALU_PRRP)",
        tournament=True,
        selector="rrqr",
        growth_bound="(1+2b)^(n/b)",
        reference="Khabou-Demmel-Grigori-Gu, arXiv:1208.2451",
    ),
}

#: Strategy used when no per-call value is given — the paper's own algorithm.
DEFAULT_STRATEGY = "ca"


def available_strategies() -> List[str]:
    """Registered strategy names, sorted."""
    return sorted(STRATEGIES)


def get_strategy(name: Optional[str] = None) -> PivotingStrategy:
    """Look up one strategy by name (``None``: :data:`DEFAULT_STRATEGY`)."""
    if name is None:
        name = DEFAULT_STRATEGY
    if name not in STRATEGIES:
        raise UnknownOptionError("pivoting strategy", name, available_strategies())
    return STRATEGIES[name]
