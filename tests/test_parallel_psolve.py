"""Tests for the end-to-end distributed solve (pdtrsv + pdgesv).

The contract: ``pdgesv`` must reproduce the sequential ``calu_solve``
solution to tight tolerance — including
non-power-of-two process grids and ragged ``n % b`` — batched multi-RHS
solves must match looped single-RHS solves, refinement must converge the way
``solve_with_refinement`` does, and the solve phase's message counts must
match the analytic solve model exactly on the unit-latency machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import calu, calu_solve, solve_with_refinement
from repro.core.options import SolveConfig
from repro.layouts import ProcessGrid
from repro.machines import unit_machine
from repro.models import solve_cost, solve_message_counts, validate_solve
from repro.parallel import pdgesv
from repro.randmat import randn

def cfg(pr: int, pc: int, b: int, **knobs) -> SolveConfig:
    """A ``pr x pc`` grid, block size ``b``, the unit machine, ``knobs``."""
    return SolveConfig.resolve(grid=(pr, pc), b=b, **knobs)


def _system(n: int, nrhs: int, seed: int):
    """A random system with a known O(1) solution."""
    A = randn(n, seed=seed + n)
    x_true = randn(n, nrhs, seed=seed + 7919)
    return A, x_true, A @ x_true


# ------------------------------------------------------------------ accuracy
@pytest.mark.parametrize("scheduler", ["coroutine"])
@pytest.mark.parametrize(
    "n,b,pr,pc,nrhs",
    [
        (32, 8, 2, 2, 1),     # even split, power-of-two grid
        (48, 8, 2, 4, 2),     # rectangular grid, multiple RHS
        (30, 7, 2, 3, 2),     # ragged n % b, non-power-of-two P = 6
        (33, 5, 3, 2, 1),     # ragged, non-power-of-two P, Pr > Pc
        (24, 8, 1, 2, 1),     # single process row
        (40, 16, 2, 1, 3),    # single process column
    ],
)
def test_pdgesv_matches_sequential_calu_solve(n, b, pr, pc, nrhs, scheduler):
    """The acceptance bar: distributed and sequential solutions agree to 1e-12."""
    A, x_true, rhs = _system(n, nrhs, seed=pr * 10 + pc)
    res = pdgesv(A, rhs, cfg(pr, pc, b))
    seq = calu_solve(A, rhs, block_size=b, nblocks=pr)
    assert np.max(np.abs(res.x - seq.x)) < 1e-12
    assert np.max(np.abs(res.x - x_true)) < 1e-12
    assert res.backward_errors[-1] < 1e-14


@pytest.mark.parametrize("pivoting", ["ca", "pp", "ca_prrp"])
def test_pdgesv_honors_pivoting_knob(pivoting):
    A, x_true, rhs = _system(36, 2, seed=3)
    res = pdgesv(A, rhs, cfg(2, 2, 8, pivoting=pivoting))
    seq = calu_solve(A, rhs, block_size=8, nblocks=2, pivoting=pivoting)
    assert np.max(np.abs(res.x - seq.x)) < 1e-12
    assert np.max(np.abs(res.x - x_true)) < 1e-12
    assert res.factorization.trace.nprocs == 4


def test_pdgesv_kernel_tier_bit_identical(monkeypatch, reference_leaves):
    """The LAPACK-backed tournament leaves must not change the simulated
    solution at all: forcing them onto the reference kernels changes no bit."""
    from repro.core import tournament

    A, _, rhs = _system(36, 2, seed=4)
    fast = pdgesv(A, rhs, cfg(2, 2, 8))
    monkeypatch.setattr(tournament, "leaf_candidates", reference_leaves)
    ref = pdgesv(A, rhs, cfg(2, 2, 8))
    assert np.array_equal(ref.x, fast.x)
    assert ref.factorization.trace.summary() == fast.factorization.trace.summary()


def test_pdgesv_cross_engine_parity():
    """The solve phase on a 2 x 3 grid charges what point-to-point delivery of
    every collective message charged (values recorded from that evaluation),
    and a second run reproduces the solution bit for bit."""
    A, _, rhs = _system(30, 2, seed=5)
    first, again = (pdgesv(A, rhs, cfg(2, 3, 7)) for _ in range(2))
    assert first.iterations == 2
    assert (first.trace.messages_by_channel("row"), first.trace.messages_by_channel("col"),
            first.trace.messages_by_channel("any")) == (78, 30, 36)
    assert first.trace.total_words == 1800.0
    assert first.trace.critical_path_time == 72.0
    assert np.array_equal(first.x, again.x)
    assert first.residual_norms == again.residual_norms
    assert first.per_rhs_residuals == again.per_rhs_residuals


def test_pdgesv_multi_rhs_matches_looped_single_rhs():
    """Batched RHS blocks must solve each system exactly like a solo run.

    ``tolerance=0`` pins the refinement count so the joint stopping test
    cannot diverge from the per-column one.
    """
    A, _, rhs = _system(40, 3, seed=6)
    config = cfg(2, 2, 8)
    multi = pdgesv(A, rhs, config, refine=1, tolerance=0.0)
    singles = [
        pdgesv(A, rhs[:, j], config, refine=1, tolerance=0.0)
        for j in range(rhs.shape[1])
    ]
    assert np.max(np.abs(multi.x - np.column_stack([s.x for s in singles]))) < 1e-12
    # The message count must not grow with the number of right-hand sides.
    assert multi.trace.total_messages == singles[0].trace.total_messages
    # Per-RHS residual histories line up with the solo runs' (batched and
    # per-column BLAS calls round differently, so only to roundoff scale).
    for j, solo in enumerate(singles):
        for step in range(len(multi.per_rhs_residuals)):
            assert multi.per_rhs_residuals[step][j] == pytest.approx(
                solo.per_rhs_residuals[step][0], abs=1e-13
            )


def test_pdgesv_vector_rhs_round_trip():
    """A 1-D right-hand side must come back as a 1-D solution."""
    A, x_true, rhs = _system(32, 1, seed=7)
    res = pdgesv(A, rhs[:, 0], cfg(2, 2, 8))
    assert res.x.ndim == 1
    assert np.max(np.abs(res.x - x_true[:, 0])) < 1e-12
    assert len(res.per_rhs_residuals[0]) == 1


def test_pdgesv_single_process_grid_sends_nothing():
    A, x_true, rhs = _system(24, 1, seed=8)
    res = pdgesv(A, rhs, cfg(1, 1, 8))
    assert res.trace.total_messages == 0
    assert np.max(np.abs(res.x - x_true)) < 1e-12


def test_pdgesv_input_validation():
    with pytest.raises(ValueError, match="square"):
        pdgesv(np.zeros((4, 3)), np.zeros(4), cfg(1, 1, 2))
    with pytest.raises(ValueError, match="right-hand side has shape"):
        pdgesv(np.eye(4), np.zeros(5), cfg(1, 1, 2))


# ------------------------------------------------- refinement convergence
@pytest.mark.parametrize("n,b,pr,pc,seed", [(48, 8, 2, 2, 0), (33, 5, 3, 2, 3)])
def test_pdgesv_refinement_matches_sequential_regression(n, b, pr, pc, seed):
    """Same seed, same refinement trajectory as ``solve_with_refinement``."""
    A, _, rhs = _system(n, 1, seed=seed)
    par = pdgesv(A, rhs, cfg(pr, pc, b))
    seq = solve_with_refinement(A, rhs, calu(A, block_size=b, nblocks=pr))
    assert par.iterations == seq.iterations
    assert len(par.residual_norms) == len(seq.residual_norms)
    assert len(par.backward_errors) == len(seq.backward_errors)
    # Refinement must actually improve the residual and converge to the
    # same order as the sequential path ("order of 1e-16", Section 6.1).
    assert par.residual_norms[-1] <= par.residual_norms[0]
    assert par.backward_errors[-1] < 1e-15
    assert seq.backward_errors[-1] < 1e-15
    for p, s in zip(par.residual_norms, seq.residual_norms):
        assert p == pytest.approx(s, rel=10.0, abs=1e-18)
    # The recorded per-step maxima are consistent with the per-RHS split.
    for step, per_rhs in enumerate(par.per_rhs_residuals):
        assert par.residual_norms[step] == pytest.approx(max(per_rhs))


def test_sequential_per_rhs_residuals_recorded():
    """``solve_with_refinement`` records the per-RHS split alongside the max."""
    A, _, rhs = _system(50, 3, seed=11)
    res = solve_with_refinement(A, rhs, calu(A, block_size=8, nblocks=2))
    assert len(res.per_rhs_residuals) == len(res.residual_norms)
    for step, per_rhs in enumerate(res.per_rhs_residuals):
        assert len(per_rhs) == 3
        assert res.residual_norms[step] == pytest.approx(max(per_rhs))


# ------------------------------------------------------- model validation
@pytest.mark.parametrize("scheduler", ["coroutine"])
@pytest.mark.parametrize(
    "n,b,pr,pc,nrhs",
    [(32, 8, 2, 2, 1), (30, 7, 2, 3, 2), (33, 5, 3, 2, 1), (48, 8, 2, 4, 3)],
)
def test_solve_message_counts_match_model(n, b, pr, pc, nrhs, scheduler):
    """On the unit-latency machine the measured solve messages are exactly
    the solve model's prediction — per channel and in total."""
    A, _, rhs = _system(n, nrhs, seed=13)
    res = pdgesv(A, rhs, cfg(pr, pc, b))
    check = validate_solve(
        res.trace, n, b, pr, pc, unit_machine(),
        nrhs=nrhs, refinements=res.iterations,
    )
    assert check.messages_match, (check.measured, check.predicted)
    for key in ("words_col", "words_row", "words_any", "total_words"):
        assert check.measured[key] == pytest.approx(check.predicted[key])
    # The latency story: the solve is message-cheap next to its factorization.
    assert res.trace.total_messages < res.factorization.trace.total_messages


def test_solve_message_count_independent_of_nrhs():
    counts1 = solve_message_counts(64, 8, 2, 2, nrhs=1, refinements=2)
    counts8 = solve_message_counts(64, 8, 2, 2, nrhs=8, refinements=2)
    assert counts1["total_messages"] == counts8["total_messages"]
    assert counts8["total_words"] > counts1["total_words"]


def test_solve_cost_prices_under_machine_models():
    from repro.machines import ibm_power5

    ledger = solve_cost(1024, 32, 4, 8, nrhs=1, refinements=2)
    assert ledger.time(unit_machine()) > 0
    assert ledger.time(ibm_power5()) > 0
    bd = ledger.breakdown(ibm_power5())
    assert bd["total"] == pytest.approx(ledger.time(ibm_power5()))
    # The solve phase is asymptotically cheaper than the factorization.
    from repro.models import calu_cost

    fact = calu_cost(1024, 1024, 32, 4, 8)
    assert ledger.time(ibm_power5()) < fact.time(ibm_power5())


def test_pdtrsv_reduce_messages_include_accumulation_time():
    """Regression: the partial-sum reduce must be timestamped *after* the
    local accumulation that produced its payload, or receivers proceed
    before the sender's arithmetic has happened on machines with γ > 0."""
    from repro.distsim import run_spmd
    from repro.layouts.block_cyclic import BlockCyclic2D
    from repro.machines import MachineModel
    from repro.scalapack import pdtrsv_lower_unit

    n, bsz = 16, 8
    grid = ProcessGrid(1, 2)
    dist = BlockCyclic2D(n, n, bsz, grid)
    L = np.tril(randn(n, seed=21), -1) + np.eye(n)
    locs = dist.scatter(L)
    rhs_blocks = {0: {0: randn(bsz, 1, seed=22)}, 1: {1: randn(bsz, 1, seed=23)}}
    gamma_only = MachineModel(
        name="gamma-only", gamma=1.0, gamma_d=1.0, alpha=0.0, beta=0.0
    )

    def prog(comm):
        yield from pdtrsv_lower_unit(comm, dist, locs[comm.rank], rhs_blocks[comm.rank], 1)
        return comm.trace.clock

    trace = run_spmd(2, prog, machine=gamma_only)
    # Rank 0 performs the block-0 diagonal solve *and* the off-diagonal
    # accumulation feeding the block-1 reduce; rank 1's clock must therefore
    # dominate the whole of rank 0's arithmetic, not just the diagonal solve.
    assert trace.results[1] >= trace.ranks[0].flops.total


def test_solve_simulated_time_within_model_envelope():
    """The analytic critical path is a serial bound: the simulated (pipelined)
    time lands below it but within a small constant factor."""
    A, _, rhs = _system(48, 1, seed=17)
    res = pdgesv(A, rhs, cfg(2, 2, 8))
    check = validate_solve(
        res.trace, 48, 8, 2, 2, unit_machine(), nrhs=1, refinements=res.iterations
    )
    assert 0.25 < check.time_ratio <= 1.0


# --------------------------------------------------- factor reuse (pdgesv_solve)
@pytest.mark.parametrize("scheduler", ["coroutine"])
@pytest.mark.parametrize(
    "n,b,pr,pc,nrhs",
    [
        (32, 8, 2, 2, 1),     # even split, power-of-two grid
        (30, 7, 2, 3, 2),     # ragged n % b, non-power-of-two P = 6
        (33, 5, 3, 2, 3),     # ragged, non-power-of-two P, Pr > Pc
    ],
)
def test_pdgesv_solve_bit_identical_to_cold_pdgesv(n, b, pr, pc, nrhs, scheduler):
    """The factor-cache acceptance bar: reusing a ``FactoredMatrix`` is
    bit-for-bit the solve phase of a cold ``pdgesv`` — solution, residual
    history, backward errors, and the solve-phase trace."""
    from repro.parallel import pcalu_factor, pdgesv_solve

    A, _, rhs = _system(n, nrhs, seed=pr * 10 + pc)
    config = cfg(pr, pc, b)
    cold = pdgesv(A, rhs, config)
    factor = pcalu_factor(A, config)
    for _ in range(2):  # reuse is idempotent
        warm = pdgesv_solve(factor, rhs, config)
        assert np.array_equal(cold.x, warm.x)
        assert cold.residual_norms == warm.residual_norms
        assert cold.per_rhs_residuals == warm.per_rhs_residuals
        assert cold.backward_errors == warm.backward_errors
        assert cold.iterations == warm.iterations
        # Solve-phase traces price identically: same messages, words, time.
        assert cold.trace.total_messages == warm.trace.total_messages
        assert cold.trace.total_words == warm.trace.total_words
        assert cold.trace.critical_path_time == warm.trace.critical_path_time
    # A cold pdgesv carries its factor artifact; the reused factor holds
    # the same bits in every piece.
    assert cold.factor is not None
    for r in range(pr * pc):
        assert np.array_equal(cold.factor.lu[r], factor.lu[r])
        assert np.array_equal(cold.factor.pa[r], factor.pa[r])
    assert np.array_equal(cold.factor.perm, factor.perm)


def test_pdgesv_solve_validates_rhs_rows():
    from repro.parallel import pcalu_factor, pdgesv_solve

    A, _, _ = _system(32, 1, seed=5)
    factor = pcalu_factor(A, cfg(2, 2, 8))
    with pytest.raises(ValueError, match="right-hand side has shape"):
        pdgesv_solve(factor, np.zeros(31))


@pytest.mark.parametrize("scheduler", ["coroutine"])
def test_pdgesv_solve_rhs_slo_drives_extra_refinement(scheduler):
    """A finite per-RHS SLO keeps refining past the backward-error stop;
    ``rhs_slo=None`` preserves the legacy stopping rule bit-for-bit."""
    from repro.parallel import pcalu_factor, pdgesv_solve

    A, _, rhs = _system(48, 2, seed=9)
    config = cfg(2, 2, 8)
    factor = pcalu_factor(A, config)
    legacy = pdgesv_solve(factor, rhs, config)
    none_slo = pdgesv_solve(factor, rhs, config, rhs_slo=None)
    assert np.array_equal(legacy.x, none_slo.x)
    assert legacy.residual_norms == none_slo.residual_norms

    # An infinite SLO changes nothing either (converged() degenerates to
    # the legacy tolerance check).
    inf_slo = pdgesv_solve(factor, rhs, config, rhs_slo=np.full(2, np.inf))
    assert np.array_equal(legacy.x, inf_slo.x)
    assert legacy.iterations == inf_slo.iterations

    # An unreachable SLO exhausts the refinement budget.
    hard = pdgesv_solve(
        factor, rhs, config, refine=3, tolerance=0.0, rhs_slo=np.full(2, 1e-300)
    )
    assert hard.iterations == 3
    assert hard.iterations > legacy.iterations


# ------------------------------------------------------------------ empty RHS
@pytest.mark.parametrize("scheduler", ["coroutine"])
def test_pdgesv_zero_rhs_columns(scheduler):
    """nrhs = 0 is served cleanly: empty solution, no refinement, and the
    triangular sweeps still run structurally (messages flow, nothing solves)."""
    A, _, _ = _system(32, 1, seed=3)
    res = pdgesv(A, np.zeros((32, 0)), cfg(2, 2, 8))
    assert res.x.shape == (32, 0)
    assert res.iterations == 0
    assert all(r == 0.0 for r in res.residual_norms)
    assert all(len(step) == 0 for step in res.per_rhs_residuals)


@pytest.mark.parametrize("scheduler", ["coroutine"])
def test_pdgesv_solve_zero_rhs_columns_from_factor(scheduler):
    from repro.parallel import pcalu_factor, pdgesv_solve

    A, _, _ = _system(30, 1, seed=4)  # ragged n % b
    config = cfg(2, 2, 7)
    factor = pcalu_factor(A, config)
    res = pdgesv_solve(factor, np.zeros((30, 0)), config)
    assert res.x.shape == (30, 0)
    assert res.iterations == 0


@pytest.mark.parametrize("scheduler", ["coroutine"])
def test_pdtrsv_zero_rhs_columns(scheduler):
    """Both triangular sweeps accept a zero-column RHS block."""
    from repro.distsim import run_spmd
    from repro.layouts.block_cyclic import BlockCyclic2D
    from repro.scalapack import pdtrsv_lower_unit, pdtrsv_upper
    from repro.scalapack.pdtrsv import diag_owner

    n, bsz = 16, 8
    grid = ProcessGrid(2, 2)
    dist = BlockCyclic2D(n, n, bsz, grid)
    T = np.tril(randn(n, seed=31), -1) + np.eye(n) + np.triu(randn(n, seed=32))
    locs = dist.scatter(T)
    nblocks = dist.num_block_rows()

    def prog(comm):
        rhs = {
            k: np.zeros((bsz, 0))
            for k in range(nblocks)
            if diag_owner(dist, k) == comm.rank
        }
        _, lower = yield from pdtrsv_lower_unit(comm, dist, locs[comm.rank], dict(rhs), 0)
        _, upper = yield from pdtrsv_upper(comm, dist, locs[comm.rank], dict(rhs), 0)
        return (
            {k: v.shape for k, v in lower.items()},
            {k: v.shape for k, v in upper.items()},
        )

    trace = run_spmd(grid.size, prog, machine=unit_machine())
    for lower, upper in trace.results:
        for shape in list(lower.values()) + list(upper.values()):
            assert shape == (bsz, 0)


# ------------------------------------------------------------------- memory
def test_pdgesv_result_retains_one_factor_representation():
    """What ``pdgesv`` hands back holds the factorization once — the ranks'
    packed-factor pieces (shared by ``result.factor`` and
    ``result.factorization``) and ``P A``'s pieces for refinement — not a
    gathered copy, dense ``L`` and ``U`` or their re-packing: at most 3 n^2
    doubles (it used to be 5.5).  No global copy is formed on the way
    either: the peak stays within 3.5 n^2 doubles (5.09 when the factor was
    gathered and re-scattered)."""
    import gc
    import tracemalloc

    n = 192
    A, _, rhs = _system(n, 2, seed=11)
    config = SolveConfig.resolve(grid=(4, 4), b=16)
    pdgesv(A[:32, :32], rhs[:32], config=config)  # warm imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = pdgesv(A, rhs, config=config)
        gc.collect()
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert res.factor.lu is res.factorization.pieces
    assert not any("Aloc" in r for r in res.factorization.trace.results)
    assert retained <= 3 * n * n * 8, f"{retained / (8 * n * n):.2f} n^2 doubles"
    assert peak <= 3.5 * n * n * 8, f"peak {peak / (8 * n * n):.2f} n^2 doubles"
    # ... and the factors are still there for whoever asks.
    fact = res.factorization
    assert np.allclose(A[fact.perm], fact.L @ fact.U, atol=1e-10)


def test_pdgesv_gathers_nothing_and_scatters_only_a(layout_calls):
    """The factor stays in the block-cyclic layout from factorization to
    solve: ``A`` is scattered once and nothing is gathered."""
    A, _, rhs = _system(30, 2, seed=2)
    res = pdgesv(A, rhs, cfg(2, 3, 7))
    assert layout_calls == {"scatter": 1, "gather": 0}
    assert np.allclose(A @ res.x, rhs, atol=1e-12)


def test_factor_pieces_are_read_only():
    """One factor serves every solve, so an in-place write into any of its
    pieces raises instead of corrupting the next solve."""
    from repro.parallel import pcalu_factor, pdgesv_solve

    A, _, rhs = _system(32, 1, seed=6)
    factor = pcalu_factor(A, cfg(2, 2, 8))
    before = pdgesv_solve(factor, rhs, cfg(2, 2, 8))
    for pieces in (factor.lu, factor.pa):
        for piece in pieces.values():
            with pytest.raises(ValueError, match="read-only"):
                piece[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                piece += 0.0
    after = pdgesv_solve(factor, rhs, cfg(2, 2, 8))
    assert np.array_equal(before.x, after.x)
