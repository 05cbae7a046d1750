"""Benchmark: the end-to-end distributed solve (pdgesv) pipeline.

Tracks the host cost of the full factor + permute + triangular-solve +
refinement chain on the simulator, the split between the factorization and
the solve phase, and the accuracy/message-count quantities recorded by the
``solve`` experiment spec — so the uploaded benchmark artifact carries the
solve trajectory next to the factorization benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import calu_solve
from repro.core.options import SolveConfig
from repro.machines import unit_machine
from repro.models import validate_solve
from repro.parallel import pdgesv
from repro.randmat import randn


def _solve(n: int, b: int, pr: int, pc: int, nrhs: int):
    A = randn(n, seed=n)
    x_true = randn(n, nrhs, seed=n + 1)
    rhs = A @ x_true
    res = pdgesv(A, rhs, SolveConfig.resolve(grid=(pr, pc), b=b, engine="event"))
    return A, x_true, rhs, res


def test_bench_pdgesv_end_to_end(benchmark):
    """Headline: solve a 128x128 system with 4 RHS on a 2x2 grid."""
    n, b, pr, pc, nrhs = 128, 16, 2, 2, 4
    A, x_true, rhs, res = benchmark.pedantic(
        _solve, args=(n, b, pr, pc, nrhs), rounds=3, iterations=1
    )
    assert np.max(np.abs(res.x - x_true)) < 1e-11
    check = validate_solve(
        res.trace, n, b, pr, pc, unit_machine(), nrhs=nrhs,
        refinements=res.iterations,
    )
    assert check.messages_match
    benchmark.extra_info["n"] = n
    benchmark.extra_info["nrhs"] = nrhs
    benchmark.extra_info["grid"] = f"{pr}x{pc}"
    benchmark.extra_info["iterations"] = res.iterations
    benchmark.extra_info["residual"] = float(res.residual_norms[-1])
    benchmark.extra_info["backward_error"] = float(res.backward_errors[-1])
    benchmark.extra_info["solve_messages"] = float(res.trace.total_messages)
    benchmark.extra_info["factor_messages"] = float(
        res.factorization.trace.total_messages
    )
    benchmark.extra_info["solve_vs_factor_message_ratio"] = float(
        res.trace.total_messages
        / max(res.factorization.trace.total_messages, 1)
    )
    # The latency story: the solve phase is message-cheap next to the
    # factorization it consumes.
    assert res.trace.total_messages < res.factorization.trace.total_messages


def test_bench_pdgesv_vs_sequential_accuracy(benchmark):
    """Cross-check against the sequential solver at a paper-shaped point."""
    n, b, pr, pc = 96, 16, 2, 4
    A, x_true, rhs, res = benchmark.pedantic(
        _solve, args=(n, b, pr, pc, 1), rounds=3, iterations=1
    )
    seq = calu_solve(A, rhs, block_size=b, nblocks=pr)
    gap = float(np.max(np.abs(res.x - seq.x)))
    assert gap < 1e-12
    benchmark.extra_info["n"] = n
    benchmark.extra_info["grid"] = f"{pr}x{pc}"
    benchmark.extra_info["max_abs_vs_sequential"] = gap
    benchmark.extra_info["iterations"] = res.iterations
