"""Tests for the solve-as-a-service dispatcher (``SolveService``).

The contract under test:

* N threaded submitters against one service coalesce into at most
  ``ceil(N / window)`` batches (and as many multi-RHS sweep pairs), every
  per-request residual meets its SLO, and the answers match serial
  ``pdgesv`` calls — bitwise against the identically-shaped coalesced
  ``pdgesv_solve`` batch, and to the repo's batched-vs-per-column BLAS
  tolerance (1e-13) against one-at-a-time solves;
* ``drain()`` on a ``start=False`` service is deterministic: submission
  order, batches of exactly ``window``;
* multi-column and zero-column requests, SLO-driven refinement, stats
  accounting, and close/context-manager semantics.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.options import SolveConfig
from repro.harness import SolveService
from repro.parallel import pcalu_factor, pdgesv, pdgesv_solve
from repro.randmat import randn

N, B = 48, 8


def config() -> SolveConfig:
    """P = 4 (a 2 x 2 grid), b = 8, the unit machine."""
    return SolveConfig.resolve(grid=4, b=B)


@pytest.fixture(scope="module")
def setup():
    A = randn(N, seed=11)
    factor = pcalu_factor(A, config())
    rng = np.random.default_rng(42)
    rhs = [A @ rng.standard_normal(N) for _ in range(12)]
    return A, factor, rhs


# ------------------------------------------------------- concurrent coalescing
def test_threaded_submitters_coalesce_and_match_serial_pdgesv(setup):
    A, factor, rhs = setup
    n_requests, window = 12, 4
    slo = 1e-10
    barrier = threading.Barrier(n_requests, timeout=30)
    outcomes = [None] * n_requests

    with SolveService(factor, window=window, linger_s=0.05) as service:
        def submitter(i):
            barrier.wait()
            outcomes[i] = service.solve(rhs[i], slo=slo, timeout=120)

        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(n_requests)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)

    # Coalescing happened: at most ceil(N/window) batches, and the sweep
    # count is 2*(1+iterations) per batch — independent of nrhs.
    stats = service.stats
    max_batches = -(-n_requests // window)
    assert stats.requests == n_requests
    assert stats.batches <= max_batches
    assert stats.batched_rhs == n_requests
    assert stats.max_batch <= window
    assert stats.sweeps <= 2 * max_batches * (1 + service.refine)
    assert stats.slo_misses == 0

    # Every request met its SLO and reports its batch.
    for o in outcomes:
        assert o.met_slo and o.residual <= slo
        assert o.slo == slo
        assert 1 <= o.batch_id <= stats.batches
        assert 1 <= o.batch_size <= window
        assert o.latency_s > 0
        assert o.x.shape == (N,)

    # Answers match one-at-a-time serial pdgesv to the repo's
    # batched-vs-per-column BLAS tolerance.
    for i, o in enumerate(outcomes):
        serial = pdgesv(A, rhs[i], config())
        assert o.x == pytest.approx(serial.x, abs=1e-13)


def test_batches_are_bit_identical_to_coalesced_pdgesv_solve(setup):
    _, factor, rhs = setup
    with SolveService(factor, window=4, start=False) as service:
        futures = [service.submit(b) for b in rhs[:8]]
        assert service.drain() == 2
    outcomes = [f.result(timeout=0) for f in futures]

    # Each drained batch stacked 4 columns; the service's answer must be
    # bitwise the same-shape pdgesv_solve batch.
    for lo in (0, 4):
        batch = np.column_stack(rhs[lo : lo + 4])
        direct = pdgesv_solve(factor, batch)
        for j, o in enumerate(outcomes[lo : lo + 4]):
            assert np.array_equal(o.x, direct.x[:, j])
            assert o.iterations == direct.iterations
            history = [float(row[j]) for row in direct.per_rhs_residuals]
            assert o.residual_history == pytest.approx(history, abs=0)


# ------------------------------------------------------------- drain semantics
def test_drain_is_deterministic_in_submission_order(setup):
    _, factor, rhs = setup
    service = SolveService(factor, window=3, start=False)
    futures = [service.submit(b) for b in rhs[:7]]
    assert service.drain() == 3  # ceil(7/3): batches of 3, 3, 1
    batch_ids = [f.result(timeout=0).batch_id for f in futures]
    assert batch_ids == [1, 1, 1, 2, 2, 2, 3]
    sizes = [f.result(timeout=0).batch_size for f in futures]
    assert sizes == [3, 3, 3, 3, 3, 3, 1]
    assert service.drain() == 0  # idempotent when empty
    service.close()


def test_drain_requires_stopped_dispatcher(setup):
    _, factor, _ = setup
    with SolveService(factor) as service:
        with pytest.raises(RuntimeError, match="start=False"):
            service.drain()


def test_multi_column_request_stays_whole_and_bounds_by_columns(setup):
    _, factor, rhs = setup
    service = SolveService(factor, window=4, start=False)
    wide = np.column_stack(rhs[:3])  # 3 columns
    f_wide = service.submit(wide)
    f_one = service.submit(rhs[3])
    f_next = service.submit(np.column_stack(rhs[4:6]))  # 2 cols: next batch
    assert service.drain() == 2
    o_wide, o_one, o_next = (
        f.result(timeout=0) for f in (f_wide, f_one, f_next)
    )
    assert o_wide.x.shape == (N, 3)
    assert o_wide.batch_id == o_one.batch_id == 1
    assert o_wide.batch_size == 4  # 3 + 1 columns coalesced
    assert o_next.batch_id == 2 and o_next.batch_size == 2
    service.close()


def test_zero_column_request_is_fulfilled_immediately(setup):
    _, factor, _ = setup
    with SolveService(factor, start=False) as service:
        outcome = service.submit(np.zeros((N, 0))).result(timeout=0)
    assert outcome.x.shape == (N, 0)
    assert outcome.met_slo and outcome.residual == 0.0
    assert outcome.batch_size == 0
    assert service.stats.requests == 0  # never joined a sweep


# ----------------------------------------------------------------- SLO + stats
def test_slo_drives_refinement_and_miss_is_reported(setup):
    _, factor, rhs = setup
    # Absurdly tight SLO: refinement runs to its budget, miss is recorded.
    with SolveService(factor, window=2, refine=2, start=False,
                      tolerance=0.0) as service:
        fut = service.submit(rhs[0], slo=1e-30)
        service.drain()
    o = fut.result(timeout=0)
    assert o.iterations == 2  # budget exhausted chasing the SLO
    assert not o.met_slo
    assert service.stats.slo_misses == 1

    # A loose SLO is met without extra refinement.
    with SolveService(factor, window=2, refine=2, start=False) as service:
        fut = service.submit(rhs[0], slo=1e-8)
        service.drain()
    o = fut.result(timeout=0)
    assert o.met_slo and o.residual <= 1e-8


def test_mixed_slos_refine_until_strictest_member_is_met(setup):
    _, factor, rhs = setup
    with SolveService(factor, window=4, refine=3, start=False,
                      tolerance=0.0) as service:
        loose = service.submit(rhs[0], slo=1e-6)
        tight = service.submit(rhs[1], slo=1e-13)
        service.drain()
    o_loose, o_tight = loose.result(timeout=0), tight.result(timeout=0)
    assert o_loose.batch_id == o_tight.batch_id  # one sweep served both
    assert o_loose.met_slo and o_tight.met_slo
    # The whole batch refined as far as the strictest member needed.
    assert o_loose.iterations == o_tight.iterations


def test_default_slo_applies_when_request_has_none(setup):
    _, factor, rhs = setup
    with SolveService(factor, window=2, start=False,
                      default_slo=1e-9) as service:
        fut = service.submit(rhs[0])
        service.drain()
    o = fut.result(timeout=0)
    assert o.slo == 1e-9 and o.met_slo


def test_stats_snapshot_and_sweep_accounting(setup):
    _, factor, rhs = setup
    with SolveService(factor, window=4, start=False) as service:
        futures = [service.submit(b) for b in rhs[:8]]
        service.drain()
        [f.result(timeout=0) for f in futures]
    snap = service.stats.snapshot()
    assert snap["requests"] == 8
    assert snap["batches"] == 2
    assert snap["batched_rhs"] == 8
    per_batch_iters = {
        o.batch_id: o.iterations
        for o in (f.result(timeout=0) for f in futures)
    }
    assert snap["sweeps"] == sum(
        2 * (1 + it) for it in per_batch_iters.values()
    )
    assert snap["refinements"] == sum(per_batch_iters.values())
    assert snap["max_batch"] == 4


# ------------------------------------------------------------------- lifecycle
def test_close_serves_queued_requests_then_rejects_new_ones(setup):
    _, factor, rhs = setup
    service = SolveService(factor, window=4)
    futures = [service.submit(b) for b in rhs[:4]]
    service.close()
    for f in futures:
        assert f.result(timeout=30).met_slo is not None
    with pytest.raises(RuntimeError, match="closed"):
        service.submit(rhs[0])
    service.close()  # idempotent


def test_submit_validates_shape_and_window(setup):
    _, factor, _ = setup
    with SolveService(factor, start=False) as service:
        with pytest.raises(ValueError, match="right-hand side"):
            service.submit(np.zeros(N + 1))
        with pytest.raises(ValueError, match="right-hand side"):
            service.submit(np.zeros((N, 2, 2)))
    with pytest.raises(ValueError, match="window"):
        SolveService(factor, window=0)


def test_non_finite_request_fails_alone_at_submit(setup):
    """A right-hand side with a NaN is rejected at ``submit``; the requests
    around it are served exactly as they would be without it."""
    _, factor, rhs = setup
    bad = rhs[3].copy()
    bad[5] = np.nan
    with SolveService(factor, window=4, start=False) as service:
        futures = [service.submit(b) for b in rhs[:3]]
        with pytest.raises(ValueError, match="^b has non-finite entries"):
            service.submit(bad)
        assert service.drain() == 1
    with SolveService(factor, window=4, start=False) as service:
        alone = [service.submit(b) for b in rhs[:3]]
        assert service.drain() == 1
    for got, want in zip(futures, alone):
        assert np.array_equal(got.result(timeout=0).x, want.result(timeout=0).x)
