"""The simulated result does not depend on the host's stepping order.

The scheduler steps the ready rank with the smallest ``(simulated clock,
rank)``.  A rank reads another rank's clock only through a message's
``available_at``, so any other order among ready ranks must give the same
run: the same solution bits and, on every rank, the same clock (to the last
bit), message and word counters, channel split, flops and group-collective
count.  These tests replace the scheduler's heap with seeded random pops and
compare each run with the default order.

Only runs that succeed are replayed: which failure a failing run reports is
decided by the ``(clock, rank)`` order (see
:class:`~repro.distsim.errors.RankFailedError`).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.options import SolveConfig
from repro.distsim.engine import coroutine
from repro.machines import ibm_power5
from repro.parallel import pcalu_factor, pdgesv_solve, ptslu
from repro.parallel.psolve import pdgesv
from repro.randmat import randn, tall_skinny

SEEDS = (1, 2, 3)


class RandomOrder:
    """Stands in for :mod:`heapq` in the scheduler: pops a random ready rank."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def heappush(self, heap, item) -> None:
        heap.append(item)

    def heappop(self, heap):
        i = self.rng.randrange(len(heap))
        heap[i], heap[-1] = heap[-1], heap[i]
        return heap.pop()


def trace_state(trace):
    """Every simulated quantity of every rank, clocks as exact hex strings."""
    return [
        (
            r.clock.hex(),
            r.messages_sent,
            r.messages_received,
            r.words_sent,
            r.words_received,
            sorted(r.messages_by_channel.items()),
            sorted(r.words_by_channel.items()),
            r.flops.muladds,
            r.flops.divides,
            r.flops.comparisons,
            r.group_collectives,
        )
        for r in trace.ranks
    ]


def solve_state(res):
    state = [res.x.tobytes(), res.x.shape, trace_state(res.trace)]
    if res.factorization is not None:
        state.append(trace_state(res.factorization.trace))
    return state


def assert_order_free(monkeypatch, run):
    """``run()`` gives the same state under the heap and three random orders."""
    expected = run()
    for seed in SEEDS:
        with monkeypatch.context() as patch:
            patch.setattr(coroutine, "heapq", RandomOrder(seed))
            assert run() == expected, f"stepping-order seed {seed}"


@pytest.mark.parametrize(
    "n,b,grid,knobs",
    [
        (32, 8, (2, 2), {"pivoting": "ca"}),
        (53, 7, (2, 3), {"pivoting": "pp"}),
        (48, 6, (4, 2), {"pivoting": "ca_prrp", "matmul": "caps"}),
        (32, 4, (1, 4), {}),
        (32, 4, (4, 1), {}),
        (64, 4, (4, 4), {}),
    ],
    ids=["2x2-ca", "2x3-pp-ragged", "4x2-ca_prrp-caps", "1x4", "4x1", "4x4"],
)
def test_pdgesv_is_stepping_order_free(monkeypatch, n, b, grid, knobs):
    A = randn(n, seed=n + b)
    rhs = randn(n, 2, seed=n)
    config = SolveConfig.resolve(grid=grid, b=b, machine="ibm_power5", **knobs)
    assert_order_free(monkeypatch, lambda: solve_state(pdgesv(A, rhs, config)))


@pytest.mark.parametrize("pivoting", ["pp", "ca", "ca_prrp"])
def test_ptslu_is_stepping_order_free(monkeypatch, pivoting):
    A = tall_skinny(80, 6, seed=5)

    def run():
        res = ptslu(A, nprocs=5, machine=ibm_power5(), pivoting=pivoting)
        return [res.L.tobytes(), res.U.tobytes(), res.perm.tobytes(),
                trace_state(res.trace)]

    assert_order_free(monkeypatch, run)


def test_step_op_solve_is_stepping_order_free(monkeypatch):
    """An 8-RHS solve against a factor, with per-RHS residual targets: the
    solve phase's sweeps and residuals are step ops."""
    n = 48
    config = SolveConfig.resolve(grid=(2, 2), b=8, machine="ibm_power5")
    factor = pcalu_factor(randn(n, seed=11), config)
    rhs = randn(n, 8, seed=12)
    slo = np.full(8, 1e-13)
    assert_order_free(
        monkeypatch,
        lambda: solve_state(pdgesv_solve(factor, rhs, config, refine=3, rhs_slo=slo)),
    )
