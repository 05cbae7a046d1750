"""Tests for the pluggable distributed-matmul layer (summa / caps).

Covers the backend registry and its knob (``matmul=`` argument,
``SolveConfig.matmul``), the local Strassen kernel, the
standalone ``pdgemm`` entry point for both backends, exact agreement of the
measured per-channel message/word totals with the analytic ledgers of
:mod:`repro.models.matmul_model` on multiple engines, the Strassen bandwidth
lower bound as a floor, the CAPS-beats-SUMMA words-moved acceptance point,
bit-identity of the default backend through the LU driver, and the
re-keying of the result store and the factor cache on the new knob.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import SolveConfig, UnknownOptionError
from repro.distsim import available_engines
from repro.kernels.flops import FlopCounter
from repro.layouts.grid import ProcessGrid
from repro.matmul import (
    DEFAULT_BACKEND,
    available_backends,
    get_backend,
    pdgemm,
    resolve_matmul,
)
from repro.matmul.caps import (
    caps_count_ledger,
    node_kind,
    owned_intervals,
    strassen_multiply,
)
from repro.models.compare import validate_matmul
from repro.models.matmul_model import (
    caps_message_counts,
    classical_lower_bound_words,
    strassen_lower_bound_words,
    summa_message_counts,
)
from repro.randmat.generators import randn


# ------------------------------------------------------------------ registry
def test_registry_lists_both_backends():
    assert available_backends() == ["caps", "summa"]
    assert DEFAULT_BACKEND == "summa"
    assert get_backend("summa").name == "summa"
    assert get_backend("caps").name == "caps"


def test_unknown_backend_raises_unknown_option_error():
    with pytest.raises(UnknownOptionError, match="unknown matmul backend"):
        get_backend("cannon")
    with pytest.raises(ValueError, match="'cannon'"):
        SolveConfig.resolve(matmul="cannon")
    err = None
    try:
        resolve_matmul("cannon")
    except UnknownOptionError as exc:
        err = exc
    assert err is not None
    assert err.kind == "matmul backend"
    assert err.name == "cannon"
    assert err.available == ["caps", "summa"]


# The precedence rule (explicit > default) is covered for every knob at once
# by the parametrized suite in tests/test_options.py.


# ------------------------------------------------------------- local Strassen
def test_strassen_multiply_matches_dense_and_saves_muladds():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((24, 40))
    B = rng.standard_normal((40, 32))
    flops = FlopCounter()
    C = strassen_multiply(A, B, flops=flops)
    assert np.max(np.abs(C - A @ B)) < 1e-12
    classical = 2 * 24 * 40 * 32
    assert 0 < flops.muladds < classical


def test_strassen_multiply_odd_and_tiny_fall_back_to_classical():
    rng = np.random.default_rng(1)
    for shape in ((7, 9, 5), (4, 4, 4), (1, 3, 2)):
        m, k, n = shape
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        assert np.allclose(strassen_multiply(A, B), A @ B)


# --------------------------------------------------------------- caps layout
def test_caps_owned_intervals_partition_every_level():
    for r in (16, 28, 56):
        for g in (1, 7, 10, 49):
            ivals = [owned_intervals(r, g, p) for p in range(g)]
            covered = sorted(
                (s, e) for per in ivals for (s, e) in per
            )
            total = sum(e - s for s, e in covered)
            assert total == r
            # Disjoint and covering [0, r).
            pos = 0
            for s, e in covered:
                assert s == pos and e > s
                pos = e
            assert pos == r


def test_caps_node_kind_dispatch():
    assert node_kind(1, 8, 8, 8) == "local"
    assert node_kind(7, 16, 16, 16) == "bfs"
    assert node_kind(49, 32, 32, 32) == "bfs"
    assert node_kind(10, 32, 32, 32) == "dfs"  # g % 7 != 0, dims large+even
    assert node_kind(7, 9, 9, 9) == "bcast"  # odd dims
    assert node_kind(10, 4, 4, 4) == "bcast"  # even but below DFS_MIN


# ------------------------------------------------------- standalone pdgemm
@pytest.mark.parametrize("backend", ["summa", "caps"])
def test_pdgemm_matches_dense_product(backend):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((20, 18))
    B = rng.standard_normal((18, 26))
    C0 = rng.standard_normal((20, 26))
    grid = ProcessGrid(2, 3) if backend == "summa" else ProcessGrid.default_for(7)
    result = pdgemm(A, B, C=C0, grid=grid, block_size=8, matmul=backend)
    assert np.max(np.abs(result.C - (C0 + A @ B))) < 1e-12


def test_pdgemm_dispatches_on_matmul_knob():
    A = randn(16, seed=3)
    B = randn(16, seed=4)
    grid = ProcessGrid.default_for(7)
    res = pdgemm(A, B, grid=grid, block_size=4, matmul="caps")
    # All CAPS traffic is point-to-point / group-wide: "any" channel only.
    assert res.trace.messages_by_channel("row") == 0
    assert res.trace.messages_by_channel("col") == 0
    assert res.trace.messages_by_channel("any") > 0
    assert np.max(np.abs(res.C - A @ B)) < 1e-12
    # Unset, the knob means the default backend: SUMMA's row/col broadcasts.
    default = pdgemm(A, B, grid=grid, block_size=4)
    assert default.trace.messages_by_channel("row") > 0


def test_pdgemm_shape_validation():
    with pytest.raises(ValueError):
        pdgemm(np.zeros((4, 5)), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        pdgemm(np.zeros((4, 4)), np.zeros((4, 4)), C=np.zeros((3, 4)))


# ------------------------------------------------- ledgers: measured == model
@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize(
    "backend,n,P,b",
    [
        ("summa", 24, 6, 8),
        ("summa", 18, 4, 8),  # ragged: b does not divide n
        ("caps", 16, 7, 4),
        ("caps", 28, 49, 4),
        ("caps", 16, 10, 4),  # non-power-of-two, non-multiple-of-7 P
        ("caps", 18, 7, 4),  # odd dims -> bcast leaf
    ],
)
def test_measured_counts_match_model_exactly(backend, n, P, b, engine):
    A = randn(n, seed=5 + n)
    B = randn(n, seed=6 + n)
    grid = ProcessGrid.default_for(P)
    res = pdgemm(A, B, grid=grid, block_size=b, matmul=backend, engine=engine)
    check = validate_matmul(res.trace, backend, n, n, n, grid, block_size=b)
    assert check.messages_match, (check.measured, check.predicted)
    assert check.words_match, (check.measured, check.predicted)
    assert check.above_lower_bound
    assert np.max(np.abs(res.C - A @ B)) < 1e-11


def test_caps_ledger_matches_model_wrapper():
    assert caps_message_counts(56, 56, 56, 343) == caps_count_ledger(56, 56, 56, 343)


def test_summa_closed_form_sanity():
    counts = summa_message_counts(20, 18, 26, 2, 3, 8)
    assert counts["messages_row"] == 3 * 2 * (3 - 1)
    assert counts["words_row"] == (3 - 1) * 20 * 18
    assert counts["messages_col"] == 3 * 3 * (2 - 1)
    assert counts["words_col"] == (2 - 1) * 18 * 26
    assert counts["messages_any"] == 0.0 and counts["words_any"] == 0.0


# ------------------------------------------- the communication-cost headline
def test_caps_beats_summa_on_words_moved_at_scale():
    """The tentpole acceptance point: CAPS moves asymptotically fewer words."""
    n, P = 56, 343
    grid = ProcessGrid.default_for(P)
    summa_words = summa_message_counts(n, n, n, grid.nprow, grid.npcol, 8)[
        "total_words"
    ]
    caps_words = caps_message_counts(n, n, n, P)["total_words"]
    assert caps_words < summa_words
    assert summa_words / caps_words > 1.5


def test_strassen_lower_bound_is_a_floor_for_caps():
    n, P = 56, 343
    bound = strassen_lower_bound_words(n, n, n, P)
    measured_per_proc = caps_message_counts(n, n, n, P)["total_words"] / P
    assert bound <= measured_per_proc
    # And the classical bound sits strictly above the Strassen one.
    assert strassen_lower_bound_words(n, n, n, P) < classical_lower_bound_words(
        n, n, n, P
    )


# ------------------------------------------------ LU driver integration
def test_default_backend_is_bit_identical_through_pcalu():
    from repro.core.options import SolveConfig
    from repro.parallel.pcalu import pcalu

    A = randn(48, seed=11)
    base = pcalu(A, SolveConfig.resolve(grid=(2, 2), b=8))
    explicit = pcalu(A, SolveConfig.resolve(grid=(2, 2), b=8, matmul="summa"))
    assert base.L.tobytes() == explicit.L.tobytes()
    assert base.U.tobytes() == explicit.U.tobytes()
    assert np.array_equal(base.perm, explicit.perm)


def test_caps_backend_through_pcalu_factors_correctly():
    from repro.core.options import SolveConfig
    from repro.parallel.pcalu import pcalu

    A = randn(48, seed=12)
    caps = SolveConfig.resolve(grid=(2, 2), b=8, matmul="caps")
    res = pcalu(A, caps)
    err = np.max(np.abs(A[res.perm, :] - res.L @ res.U))
    assert err < 1e-11
    ref = pcalu(A, caps.replace(matmul="summa"))
    # Same pivots (pivoting is decided before the trailing update), and the
    # factors agree to roundoff — Strassen reassociates the arithmetic.
    assert np.array_equal(res.perm, ref.perm)
    assert np.max(np.abs(res.L - ref.L)) < 1e-11


def test_pdgesv_solves_with_caps_backend():
    from repro.core.options import SolveConfig
    from repro.parallel.psolve import pdgesv

    n = 48
    A = randn(n, seed=13)
    x_true = randn(n, 2, seed=14)
    res = pdgesv(A, A @ x_true, SolveConfig.resolve(grid=(2, 2), b=8, matmul="caps"))
    assert np.max(np.abs(res.x - x_true)) < 1e-9


# ------------------------------------------------------------- cache re-keying
def test_context_key_depends_on_matmul(tmp_path):
    from repro.harness.store import context_key

    k1 = context_key("solve", {"n": 48}, "lapack", "coroutine", "ca", "summa")
    k2 = context_key("solve", {"n": 48}, "lapack", "coroutine", "ca", "caps")
    assert k1 != k2
    # Default keeps historical five-argument call sites working.
    assert context_key("solve", {"n": 48}, "lapack", "coroutine", "ca") == k1


def test_factor_cache_keys_and_roundtrips_matmul(tmp_path):
    from repro.core.options import SolveConfig
    from repro.harness.factor_cache import FactorCache, factor_key

    k1 = factor_key("randn", 48, 0, 2, 2, 8, "ca", "lapack", "coroutine")
    k2 = factor_key("randn", 48, 0, 2, 2, 8, "ca", "lapack", "coroutine",
                    matmul="caps")
    assert k1 != k2

    cache = FactorCache(root=tmp_path)
    caps = SolveConfig.resolve(grid=(2, 2), b=8, matmul="caps")
    first = cache.fetch_or_factor(n=48, config=caps)
    assert not first.cached
    again = cache.fetch_or_factor(n=48, config=caps)
    assert again.cached
    assert again.factor.matmul == "caps"
    other = cache.fetch_or_factor(n=48, config=caps.replace(matmul="summa"))
    assert not other.cached  # distinct artifact per backend
    assert other.factor.matmul == "summa"


def test_result_store_keys_matmul_param_runs_distinctly(tmp_path):
    from repro.harness import get_spec
    from repro.harness.store import ResultStore

    store = ResultStore(root=tmp_path)
    spec = get_spec("matmul_tradeoff")
    a = store.fetch_or_run(spec, {"matmul": "summa"}, quick=True)
    b = store.fetch_or_run(spec, {"matmul": "caps"}, quick=True)
    assert a.artifact["key"] != b.artifact["key"]
    assert a.artifact["matmul"] == "summa"
    assert b.artifact["matmul"] == "caps"
    assert a.rows[0]["words_match"] and b.rows[0]["words_match"]
