"""End-to-end distributed solution of ``A x = b`` (``PDGESV`` analogue).

This closes the factorization→solve gap: ``pcalu`` produces distributed
factors, and the paper's accuracy story (Table 1, Section 6.1) is
defined on the *solution* — residuals and componentwise backward error after
iterative refinement.  :func:`pdgesv` chains

1. a distributed factorization (:func:`repro.parallel.pcalu.pcalu`, honoring
   the config's ``pivoting`` knob — with ``pivoting="pp"`` the factorization
   is bit-for-bit ScaLAPACK's PDGETRF — plus ``matmul``);
2. the row permutation applied to the right-hand sides (folded into the
   block-cyclic redistribution of ``b``: the driver knows the full pivot
   sequence once the factorization ends, so ``P b`` costs no messages — a
   real code would run PDLASWP on ``B`` at ``O(n)`` extra messages, which
   the analytic model deliberately excludes the same way; ``P A``'s pieces
   are built the same way, once per factor);
3. two blocked distributed triangular solves
   (:mod:`repro.scalapack.pdtrsv`);
4. distributed iterative refinement: the residual ``r = P b - (P A) x`` and
   the componentwise denominator ``|P A| |x| + |P b|`` are computed from
   block-cyclic local pieces and reduced along process rows, the per-RHS
   max-abs residuals and the backward error are agreed on by a global
   all-reduce, and each correction is another pair of triangular solves —
   "usually after 2 iterative refinements, the componentwise backward error
   can be reduced to the order of 1e-16" (Section 6.1).

The solve phase's communication is exactly predicted by
:mod:`repro.models.solve_model`; the ``solve`` experiment spec
(``repro run solve``) checks the measured message counts against it.

That communication structure is what every rank is charged; the host
evaluates it once.  Each triangular sweep and each residual is one *step op*
(:func:`repro.distsim.collectives.step`) over the grid: the ranks join it with
their local pieces and the evaluator (:func:`_distributed_residual` for the
residual) computes every rank's part in one pass — the local matvecs, the
per-block row reductions, the world all-reduce of the statistics — charging
each rank what its own program charged, in the same order.

The factorization and the solve are independently callable:
:func:`repro.parallel.factor.pcalu_factor` produces a reusable
:class:`~repro.parallel.factor.FactoredMatrix` and :func:`pdgesv_solve` runs
steps 2-4 against it — bit-identical to the solve phase of a cold
:func:`pdgesv`, which is itself just the composition of the two; a solve
redistributes only the right-hand sides.  That split is what the factor cache
and the serving layer (:mod:`repro.harness.factor_cache`,
:mod:`repro.harness.serving`) build on: pay the ``O(n^3)`` factorization
once, amortize it over any number of ``O(n^2)`` solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.options import SolveConfig
from ..core.solve import checked_operand
from ..distsim.collectives import step
from ..distsim.engine.base import RedundantOp
from ..distsim.engine.group_ops import StepGroup
from ..distsim.tracing import RunTrace
from ..distsim.vmpi import Communicator, run_spmd
from ..kernels.flops import FlopCounter
from ..layouts.block_cyclic import BlockCyclic2D
from ..scalapack.pdtrsv import (
    RhsBlocks,
    block_bounds,
    diag_owner,
    pdtrsv_lower_unit,
    pdtrsv_upper,
)
from .driver import DistributedLUResult
from .factor import FactoredMatrix, pcalu_factor


@dataclass
class DistributedSolveResult:
    """Solution of ``A x = b`` computed by the distributed solver.

    Attributes
    ----------
    x:
        Computed solution (vector, or ``n x nrhs`` matrix of solutions).
    residual_norms:
        Largest residual entry ``max_ij |b - A x|_ij`` after the initial
        solve and after each refinement step — the same quantity (and list
        layout) as :class:`repro.core.solve.SolveResult`.
    per_rhs_residuals:
        Per right-hand side max-abs residuals, one ``nrhs``-vector per
        recorded step (``residual_norms[i] == max(per_rhs_residuals[i])``).
    backward_errors:
        Componentwise backward error ``max_i |r_i| / (|A||x| + |b|)_i`` after
        the initial solve and after each refinement step.
    iterations:
        Number of refinement steps actually performed.
    factorization:
        The distributed factorization consumed by the solve (its ``trace``
        prices the factorization phase).  ``None`` when the solve ran
        against a cached :class:`~repro.parallel.factor.FactoredMatrix`
        whose factorization happened in another process — no factorization
        ran here, which is the point of the cache.
    trace:
        Per-rank communication/computation trace of the *solve* phase only
        (triangular solves + refinement), so it can be validated against
        :func:`repro.models.solve_model.solve_message_counts`.
    factor:
        The reusable factor artifact the solve consumed (always set).
    """

    x: np.ndarray
    residual_norms: List[float]
    per_rhs_residuals: List[List[float]]
    backward_errors: List[float]
    iterations: int
    factorization: Optional[DistributedLUResult]
    trace: RunTrace
    factor: Optional[FactoredMatrix] = None


def _distributed_residual(
    group: StepGroup,
    values: List[Tuple[np.ndarray, RhsBlocks, np.ndarray]],
    dist: BlockCyclic2D,
    nrhs: int,
    tag: object,
) -> List[Tuple[RhsBlocks, np.ndarray, float]]:
    """Step evaluator of the residual and componentwise backward error.

    The step's group is every rank in rank order; ``values[r]`` is rank
    ``r``'s ``(PAloc, pb_blocks, x_cols)``.  Every rank multiplies its local
    piece of the permuted matrix by the solution entries of its local columns
    (``P A x`` and ``|P A| |x|`` in one pass); the per-block-row slices are
    summed across each process row to the diagonal owners, which assemble the
    residual blocks ``r_k = (P b)_k - (P A x)_k`` and the componentwise
    ratios.  A final all-reduce over every rank agrees on the per-RHS max-abs
    residuals and the backward error, so refinement stops at the same step on
    all ranks.

    Returns, per rank, ``(residual_blocks, per_rhs_max, backward_error)``;
    the residual blocks live on the diagonal owners, ready to be the next
    refinement right-hand side.  The last two are the all-reduce's one
    result, shared by every rank: read, never mutated.
    """
    comms = group.comms
    grid = dist.grid
    size = grid.size
    partials = []
    for r, (PAloc, _, x_cols) in enumerate(values):
        mloc = PAloc.shape[0]
        if mloc and x_cols.shape[0]:
            partials.append((PAloc @ x_cols, np.abs(PAloc) @ np.abs(x_cols)))
            # Charged before the reductions ship slices of these partials, so
            # the message timestamps include the matvec that produced them.
            comms[r].charge_flops(muladds=4.0 * mloc * x_cols.shape[0] * nrhs)
        else:
            partials.append((np.zeros((mloc, nrhs)), np.zeros((mloc, nrhs))))

    adds = [_charged_pair_add(comm) for comm in comms]
    scratch = [FlopCounter() for _ in range(size)]
    residual_blocks: List[RhsBlocks] = [{} for _ in range(size)]
    local_max = [np.zeros(nrhs) for _ in range(size)]
    local_wb = [0.0] * size
    for k in range(dist.num_block_rows()):
        g0, g1 = block_bounds(dist, k)
        kb = g1 - g0
        lr0 = (k // grid.nprow) * dist.block
        root = diag_owner(dist, k)
        row = grid.row_ranks(k % grid.nprow)
        acc = group.collective(
            "reduce",
            row,
            [(partials[r][0][lr0 : lr0 + kb], partials[r][1][lr0 : lr0 + kb]) for r in row],
            [adds[r] for r in row],
            root=root,
            tag=(tag, "res", k),
            channel="row",
        )[row.index(root)]
        pb_k = values[root][1][k]
        r_k = pb_k - acc[0]
        denom = acc[1] + np.abs(pb_k)
        scratch[root].add_muladds(2.0 * kb * nrhs)
        residual_blocks[root][k] = r_k
        if r_k.size:
            local_max[root] = np.maximum(local_max[root], np.max(np.abs(r_k), axis=0))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0.0, np.abs(r_k) / denom, 0.0)
            local_wb[root] = max(local_wb[root], float(np.max(ratios)))
            scratch[root].add_divides(float(kb * nrhs))
            scratch[root].add_comparisons(2.0 * kb * nrhs)
    for comm, counter in zip(comms, scratch):
        comm.charge_counter(counter)

    stats = group.collective(
        "allreduce",
        range(size),
        list(zip(local_max, local_wb)),
        [_TakeMax(comm, nrhs) for comm in comms],
        tag=(tag, "stats"),
        channel="any",
    )
    return [
        (blocks, np.asarray(global_max), float(global_wb))
        for blocks, (global_max, global_wb) in zip(residual_blocks, stats)
    ]


def _charged_pair_add(comm: Communicator):
    """The residual reductions' operator, charging the receiving rank ``comm``."""

    def add(a: Tuple[np.ndarray, np.ndarray], b: Tuple[np.ndarray, np.ndarray]):
        comm.charge_flops(muladds=float(a[0].size + a[1].size))
        return (a[0] + b[0], a[1] + b[1])

    return add


class _TakeMax(RedundantOp):
    """The residual statistics' all-reduce: per-RHS max and backward-error max.

    ``nrhs + 1`` comparisons per application, charged to every rank that
    would have performed it; the host computes each distinct one once.
    """

    def __init__(self, comm: Communicator, nrhs: int) -> None:
        super().__init__(comm)
        self.flops = FlopCounter(comparisons=float(nrhs + 1))

    def combine(self, pairs):
        return [
            ((np.maximum(a[0], b[0]), max(a[1], b[1])), self.flops) for a, b in pairs
        ]


def _residual(comm, dist, PAloc, pb_blocks, x_cols, nrhs, tag):
    """This rank's part in the residual step op :func:`_distributed_residual`."""
    evaluator = partial(_distributed_residual, dist=dist, nrhs=nrhs, tag=tag)
    return (yield from step(comm, (PAloc, pb_blocks, x_cols), evaluator, tag=tag))


def pdgesv_rank(
    comm: Communicator,
    dist: BlockCyclic2D,
    LUloc: np.ndarray,
    PAloc: np.ndarray,
    pb_blocks: RhsBlocks,
    nrhs: int,
    max_iterations: int,
    tolerance: float,
    rhs_slo: Optional[np.ndarray] = None,
):
    """SPMD body of the distributed solve + refinement (one rank).

    ``pb_blocks`` holds the permuted right-hand-side blocks this rank
    diagonal-owns; the factorization's permutation has already been applied.
    Mirrors :func:`repro.core.solve.solve_with_refinement` step for step.

    ``rhs_slo`` (optional, length ``nrhs``) gives per-RHS max-abs residual
    targets: refinement continues while any right-hand side exceeds its
    target, even once the global backward error satisfies ``tolerance``.
    The targets are agreed on by the same all-reduce as the stop decision,
    so every rank stops at the same step.  ``None`` leaves the stopping
    rule exactly as before (bit-identical paths).
    """
    _, y_blocks = yield from pdtrsv_lower_unit(
        comm, dist, LUloc, pb_blocks, nrhs, tag=("fwd", 0)
    )
    x_cols, _ = yield from pdtrsv_upper(
        comm, dist, LUloc, y_blocks, nrhs, tag=("bwd", 0)
    )
    r_blocks, per_rhs, wb = yield from _residual(
        comm, dist, PAloc, pb_blocks, x_cols, nrhs, tag=("resid", 0)
    )
    residuals = [float(np.max(per_rhs)) if per_rhs.size else 0.0]
    per_rhs_hist = [per_rhs.tolist()]
    backward = [wb]
    iterations = 0

    def converged(wb_now: float, per_rhs_now: np.ndarray) -> bool:
        if wb_now > tolerance:
            return False
        if rhs_slo is not None and per_rhs_now.size:
            return bool(np.all(per_rhs_now <= rhs_slo))
        return True

    for it in range(1, max_iterations + 1):
        if converged(backward[-1], per_rhs):
            break
        _, dy_blocks = yield from pdtrsv_lower_unit(
            comm, dist, LUloc, r_blocks, nrhs, tag=("fwd", it)
        )
        dx_cols, _ = yield from pdtrsv_upper(
            comm, dist, LUloc, dy_blocks, nrhs, tag=("bwd", it)
        )
        x_cols += dx_cols
        comm.charge_flops(muladds=float(x_cols.size))
        r_blocks, per_rhs, wb = yield from _residual(
            comm, dist, PAloc, pb_blocks, x_cols, nrhs, tag=("resid", it)
        )
        iterations += 1
        residuals.append(float(np.max(per_rhs)) if per_rhs.size else 0.0)
        per_rhs_hist.append(per_rhs.tolist())
        backward.append(wb)

    # The solution blocks this rank diagonal-owns, read straight off the
    # column-broadcast copies — x_cols already holds every solved block
    # assigned to this grid column, so no separate per-block state is kept.
    grid = dist.grid
    x_blocks: RhsBlocks = {}
    for k in range(dist.num_block_rows()):
        if diag_owner(dist, k) == comm.rank:
            g0, g1 = block_bounds(dist, k)
            lc0 = (k // grid.npcol) * dist.block
            x_blocks[k] = x_cols[lc0 : lc0 + (g1 - g0)]
    return {
        "x_blocks": x_blocks,
        "residuals": residuals,
        "per_rhs": per_rhs_hist,
        "backward": backward,
        "iterations": iterations,
    }


def pdgesv(
    A: np.ndarray,
    b: np.ndarray,
    config: SolveConfig,
    *,
    refine: int = 2,
    tolerance: float = 1.0e-16,
) -> DistributedSolveResult:
    """Solve ``A x = b`` end to end on the virtual process grid.

    Parameters
    ----------
    A:
        Square ``n x n`` matrix.
    b:
        Right-hand side(s): an ``n``-vector or an ``n x nrhs`` matrix (the
        triangular solves are batched over the RHS block, so the message
        count does not grow with ``nrhs``).
    config:
        The :class:`~repro.core.options.SolveConfig` of the run: its grid,
        block size and machine serve *both* phases; its
        ``pivoting`` and ``matmul`` go to the factorization
        (:func:`repro.parallel.factor.pcalu_factor`), where ``pivoting="pp"``
        makes it exactly ScaLAPACK's PDGETRF.
    refine:
        Maximum iterative-refinement steps (default 2, as in the paper).
    tolerance:
        Refinement stops once the componentwise backward error drops below
        this (default ``1e-16``, matching
        :func:`repro.core.solve.solve_with_refinement`).

    Returns
    -------
    DistributedSolveResult

    Raises
    ------
    ValueError
        If ``b`` fails :func:`pdgesv_solve`'s checks (before the
        factorization runs) or ``A`` fails :func:`pcalu_factor`'s (before
        any rank starts).  With both bad, ``b`` is named.
    """
    checked_operand("b", b, rows=np.shape(A)[0] if np.ndim(A) == 2 else None)
    factor = pcalu_factor(A, config)
    return pdgesv_solve(factor, b, config, refine=refine, tolerance=tolerance)


def pdgesv_solve(
    factor: FactoredMatrix,
    b: np.ndarray,
    config: Optional[SolveConfig] = None,
    *,
    refine: int = 2,
    tolerance: float = 1.0e-16,
    rhs_slo: Optional[np.ndarray] = None,
) -> DistributedSolveResult:
    """Solve ``A x = b`` against an already-computed (possibly cached) factor.

    Skips refactorization entirely: applies the factor's row permutation to
    the right-hand sides, runs the two blocked distributed triangular sweeps
    and distributed iterative refinement on the factor's grid.  With the
    same right-hand sides and knobs this is bit-identical — solution,
    residual history and solve-phase trace — to the solve phase of a cold
    :func:`pdgesv` that produced ``factor``.

    Parameters
    ----------
    factor:
        The :class:`~repro.parallel.factor.FactoredMatrix` to solve against
        (from :func:`~repro.parallel.factor.pcalu_factor` or a
        :class:`~repro.harness.factor_cache.FactorCache` hit).
    b:
        Right-hand side(s): ``n``-vector or ``n x nrhs`` matrix; ``nrhs=0``
        is a valid empty batch and returns an empty solution.
    config:
        Optional :class:`~repro.core.options.SolveConfig` whose machine
        prices the solve phase (``None``: the unit machine).  The solve
        always runs on the factor's grid.
    refine, tolerance:
        Refinement budget and backward-error stop, as in :func:`pdgesv`.
    rhs_slo:
        Optional per-RHS max-abs residual targets (length ``nrhs``): the
        refinement loop keeps iterating, within ``refine``, while any
        right-hand side exceeds its target.  Used by the serving layer to
        honor per-request residual SLOs inside one coalesced sweep.

    Raises
    ------
    ValueError
        If ``b`` is complex, not an ``n``-vector or ``n x nrhs`` matrix, or
        has a NaN or infinite entry, or ``rhs_slo`` has the wrong shape —
        before any rank starts.
    """
    machine = None if config is None else config.machine_model()
    n = factor.n
    b = checked_operand("b", b, rows=n)
    one_d = b.ndim == 1
    B = b[:, None] if one_d else b
    nrhs = B.shape[1]
    if rhs_slo is not None:
        rhs_slo = np.asarray(rhs_slo, dtype=np.float64)
        if rhs_slo.shape != (nrhs,):
            raise ValueError(
                f"rhs_slo has shape {rhs_slo.shape}, expected ({nrhs},)"
            )

    # The factor's pieces are already block-cyclic; only the permuted RHS is
    # distributed, one block row to each diagonal owner.  Working in the
    # permuted row space throughout means residuals and backward errors are
    # computed rowwise on ``P A`` / ``P b`` — the same values as for ``A`` /
    # ``b``, since both are row permutations of the unpermuted quantities.
    grid = factor.grid
    pB = B[factor.perm, :]
    dist = factor.dist
    nb = dist.num_block_rows()
    pb_by_rank: Dict[int, RhsBlocks] = {r: {} for r in range(grid.size)}
    for k in range(nb):
        g0, g1 = block_bounds(dist, k)
        pb_by_rank[diag_owner(dist, k)][k] = np.ascontiguousarray(pB[g0:g1])

    def rank_fn(comm: Communicator):
        return (
            yield from pdgesv_rank(
                comm,
                dist,
                factor.lu[comm.rank],
                factor.pa[comm.rank],
                pb_by_rank[comm.rank],
                nrhs,
                refine,
                tolerance,
                rhs_slo,
            )
        )

    trace = run_spmd(grid.size, rank_fn, machine=machine)

    x = np.zeros((n, nrhs))
    for res in trace.results:
        for k, xk in res["x_blocks"].items():
            g0, g1 = block_bounds(dist, k)
            x[g0:g1] = xk
    first = trace.results[0]
    return DistributedSolveResult(
        x=x[:, 0] if one_d else x,
        residual_norms=first["residuals"],
        per_rhs_residuals=first["per_rhs"],
        backward_errors=first["backward"],
        iterations=first["iterations"],
        factorization=factor.source,
        trace=trace,
        factor=factor,
    )
