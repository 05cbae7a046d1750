"""The model-driven configuration search (``repro tune``).

Covers the search building blocks (candidate enumeration, the closed-form
Strassen flop count against the CAPS kernel's own accounting, predicted
ledgers), the ``tune`` spec's contract — exactly one chosen row, the chosen
simulated time never worse than the default's, the reported gap equal to
``|predicted - simulated| / simulated`` — the content-addressed artifact
round trip (miss then hit), and the tuned-defaults loading consumed by
``repro serve --tuned`` and ``SolveService(factor, load_tuned_config(...))``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import SolveConfig
from repro.harness.store import ResultStore
from repro.harness.tuning import (
    SPEC_TUNE,
    caps_flop_ratio,
    default_config,
    enumerate_candidates,
    feasible,
    grid_shapes,
    load_tune_artifact,
    load_tuned_config,
    predicted_ledger,
    predicted_time,
    strassen_flop_count,
    tune_point,
    tuned_config,
)

QUICK = dict(kind="randn", n=32, nrhs=1, P=4, seed=0, top_k=2, refine=1)


# ------------------------------------------------------------------ building blocks
def test_grid_shapes_enumerates_both_orientations():
    assert grid_shapes(4) == [(1, 4), (2, 2), (4, 1)]
    assert grid_shapes(7) == [(1, 7), (7, 1)]
    assert grid_shapes(1) == [(1, 1)]
    with pytest.raises(ValueError):
        grid_shapes(0)


def test_feasible_requires_a_block_per_grid_row_and_column():
    assert feasible(64, 16, 2, 2)
    assert not feasible(64, 64, 2, 2)  # b >= n
    assert not feasible(32, 16, 4, 1)  # only 2 block rows for 4 grid rows
    assert feasible(32, 8, 4, 1)


@pytest.mark.parametrize("m,k,n", [(24, 40, 32), (7, 9, 5), (4, 4, 4),
                                   (16, 16, 16), (32, 16, 48)])
def test_strassen_flop_count_matches_the_kernels_accounting(m, k, n):
    from repro.kernels.flops import FlopCounter
    from repro.matmul.caps import strassen_multiply

    rng = np.random.default_rng(m * 7 + n)
    flops = FlopCounter()
    strassen_multiply(
        rng.standard_normal((m, k)), rng.standard_normal((k, n)), flops=flops
    )
    assert flops.muladds == strassen_flop_count(m, k, n)


def test_caps_flop_ratio_is_one_when_recursion_cannot_fire():
    # k = b = 8 is at the cutoff: classical all the way down.
    assert caps_flop_ratio(64, 8, 2, 2) == 1.0
    # Large even local blocks with k = 16 > cutoff: Strassen saves flops.
    assert caps_flop_ratio(256, 16, 1, 1) < 1.0


def test_enumerate_candidates_covers_the_space():
    candidates = enumerate_candidates(64, 4, machine="ibm_power5")
    assert candidates, "n=64 P=4 must have feasible candidates"
    seen_grids = {c.grid for c in candidates}
    assert (2, 2) in seen_grids and (1, 4) in seen_grids and (4, 1) in seen_grids
    assert {c.pivoting for c in candidates} == {"pp", "ca", "ca_prrp"}
    assert {c.matmul for c in candidates} == {"summa", "caps"}
    assert all(feasible(64, c.b, *c.grid) for c in candidates)
    assert len(set(candidates)) == len(candidates)  # no twins to deduplicate
    # The tune spec's defaults (n=96) and --quick (n=48), both at P=4.
    assert len(enumerate_candidates(96, 4)) == 66
    assert len(enumerate_candidates(48, 4)) == 48
    # The matmul workload pins the pivoting axis.
    mm = enumerate_candidates(64, 4, workload="matmul")
    assert {c.pivoting for c in mm} == {"ca"}


def test_default_config_degrades_block_size_when_infeasible():
    assert default_config(96, 4).b == 16
    # n=32 on the 7x7 grid of P=49: b=16 gives 2 block rows < 7.
    assert default_config(32, 49).b == 4


def test_model_search_finds_caps_on_a_flat_grid_at_scale():
    """At (n=512, P=49) on the POWER5 the matmul workload's predicted-time
    winner is CAPS on a 1x49 grid, >= 1.4x ahead of the naive default: the
    words-moved headline of arXiv:1202.3173, found from the models alone."""
    n, P = 512, 49
    candidates = enumerate_candidates(n, P, workload="matmul", machine="ibm_power5")
    winner = min(candidates, key=lambda c: predicted_time(c, n, workload="matmul"))
    naive = default_config(n, P, machine="ibm_power5")
    assert (winner.matmul, winner.grid) == ("caps", (1, 49))
    assert (naive.matmul, naive.grid, naive.b) == ("summa", (7, 7), 16)
    ratio = predicted_time(naive, n, workload="matmul") / predicted_time(
        winner, n, workload="matmul"
    )
    assert ratio >= 1.4


# ------------------------------------------------------------------ prediction
def test_predicted_ledger_distinguishes_pivoting_and_matmul():
    base = dict(grid=(2, 2), b=8, machine="ibm_power5")
    ca = SolveConfig(pivoting="ca", matmul="summa", **base)
    pp = SolveConfig(pivoting="pp", matmul="summa", **base)
    caps = SolveConfig(pivoting="ca", matmul="caps", **base)
    n = 64
    # PDGETRF sends more messages along columns than CALU (factor ~b).
    assert predicted_ledger(pp, n).messages_col > predicted_ledger(ca, n).messages_col
    # At b=8 the Strassen recursion cannot fire: caps == summa on flops.
    assert predicted_ledger(caps, n).muladds == predicted_ledger(ca, n).muladds
    for config in (ca, pp, caps):
        assert predicted_time(config, n) > 0.0


def test_predicted_ledger_matmul_workload_prices_both_backends():
    base = dict(pivoting="ca", grid=(2, 2), b=8, machine="ibm_power5")
    summa = SolveConfig(matmul="summa", **base)
    caps = SolveConfig(matmul="caps", **base)
    lsum = predicted_ledger(summa, 64, workload="matmul")
    lcaps = predicted_ledger(caps, 64, workload="matmul")
    # SUMMA moves words on the row/col channels; CAPS on the any channel.
    assert lsum.words_row > 0 and lsum.words_any == 0
    assert lcaps.words_any > 0 and lcaps.words_row == 0
    assert predicted_time(summa, 64, workload="matmul") > 0.0


def test_predicted_ledger_requires_grid_and_block():
    config = SolveConfig.resolve()
    with pytest.raises(ValueError, match="grid and block size"):
        predicted_ledger(config, 64)


# ------------------------------------------------------------------ the search
@pytest.fixture(scope="module")
def tune_rows():
    return tune_point(**QUICK)


def test_tune_point_contract(tune_rows):
    assert [r["candidate"] for r in tune_rows][0] == "default"
    assert sum(r["chosen"] for r in tune_rows) == 1
    chosen = next(r for r in tune_rows if r["chosen"])
    default = next(r for r in tune_rows if r["candidate"] == "default")
    # The default is always simulated, so the winner can never lose to it.
    assert chosen["simulated_s"] <= default["simulated_s"]
    for row in tune_rows:
        assert row["predicted_s"] > 0.0 and row["simulated_s"] > 0.0
        assert row["gap"] == pytest.approx(
            abs(row["predicted_s"] - row["simulated_s"]) / row["simulated_s"]
        )
        assert row["enumerated"] == tune_rows[0]["enumerated"] > 0
        assert feasible(row["n"], row["b"], *map(int, row["grid"].split("x")))


def test_tune_point_simulated_candidates_have_distinct_configs(tune_rows):
    signatures = [
        (r["b"], r["grid"], r["pivoting"], r["matmul"]) for r in tune_rows
    ]
    # The default may coincide with a top-k candidate's signature, but the
    # top-k entries themselves are distinct candidates.
    top = signatures[1:]
    assert len(top) == len(set(top))


def test_tune_point_is_deterministic():
    again = tune_point(**QUICK)
    assert again == tune_point(**QUICK)


def test_tune_point_rejects_unknown_workload_and_machine():
    with pytest.raises(ValueError, match="workload"):
        tune_point(workload="sort", **QUICK)
    with pytest.raises(ValueError, match="cray"):
        tune_point(machine="cray_t3e", **QUICK)


# --------------------------------------------------------------- the artifact
def test_tune_spec_round_trips_through_the_store(tmp_path, tune_rows):
    store = ResultStore(root=tmp_path / "results")
    first = store.fetch_or_run(SPEC_TUNE, overrides=QUICK)
    assert not first.cached
    second = store.fetch_or_run(SPEC_TUNE, overrides=QUICK)
    assert second.cached
    assert second.rows == first.rows
    # Stored rows are bit-identical to the runner's (JSON float round trip).
    assert first.rows == tune_rows

    # Tuned-defaults loading: by "latest", by key prefix, and by path.
    for ref in ("latest", first.artifact["key"][:12], str(first.path)):
        config = load_tuned_config(ref, store=store)
        chosen = next(r for r in first.rows if r["chosen"])
        assert config.b == chosen["b"]
        assert config.pivoting == chosen["pivoting"]
        assert config.matmul == chosen["matmul"]
        assert f"{config.nprow}x{config.npcol}" == chosen["grid"]
    assert tuned_config(load_tune_artifact("latest", store=store)).machine == \
        QUICK.get("machine", "ibm_power5")


@pytest.mark.parametrize("tier", ["auto", "reference", "lapack"])
def test_tune_artifact_with_a_kernel_tier_column_loads(tier):
    """Tune rows written while the tier was a search axis carry a
    ``kernel_tier`` column; :func:`tuned_config` ignores it."""
    row = {"candidate": "top1", "b": 8, "grid": "1x4", "pivoting": "ca_prrp",
           "kernel_tier": tier, "matmul": "caps", "nrhs": 2,
           "machine": "ibm_power5", "chosen": True}
    artifact = {"spec": "tune", "engine": "coroutine", "rows": [row]}
    assert tuned_config(artifact) == SolveConfig.resolve(
        pivoting="ca_prrp", matmul="caps", grid=(1, 4), b=8,
        nrhs=2, machine="ibm_power5",
    )


@pytest.mark.parametrize("engine", ["coroutine", "event"])
def test_tune_artifact_recording_an_engine_loads(tmp_path, engine):
    """A tune artifact in the format stores have always written records an
    ``engine`` (in ``params`` and at the top level), even one no longer
    accepted; readers ignore it."""
    import json

    row = {"candidate": "top1", "workload": "solve", "kind": "randn", "n": 48,
           "P": 4, "nrhs": 1, "machine": "ibm_power5", "b": 8, "grid": "2x2",
           "pivoting": "pp", "matmul": "summa", "predicted_s": 1e-3,
           "simulated_s": 1e-3, "gap": 0.0, "chosen": True, "enumerated": 48,
           "seed": 0}
    params = {**SPEC_TUNE.params, "n": 48, "nrhs": 1, "top_k": 2,
              "engine": engine}
    artifact = {"schema": 1, "spec": "tune", "key": "ab" * 32, "params": params,
                "engine": engine, "pivoting": "ca", "matmul": "summa",
                "created_at": "2026-01-01T00:00:00Z", "rows": [row]}
    path = tmp_path / "tune" / "tune-abababababab.json"
    path.parent.mkdir()
    path.write_text(json.dumps(artifact))
    expected = SolveConfig.resolve(pivoting="pp", grid=(2, 2), b=8, machine="ibm_power5")
    assert load_tuned_config(str(path)) == expected
    assert load_tuned_config("latest", store=ResultStore(root=tmp_path)) == expected


def test_load_tune_artifact_errors_name_the_problem(tmp_path):
    store = ResultStore(root=tmp_path / "empty")
    with pytest.raises(ValueError, match="no tune artifacts"):
        load_tune_artifact("latest", store=store)
    with pytest.raises(ValueError, match="no tune artifacts"):
        load_tune_artifact("deadbeef", store=store)


def test_solve_service_accepts_tuned_reference(tmp_path, monkeypatch):
    from repro.harness.factor_cache import generate_matrix
    from repro.harness.serving import SolveService
    from repro.parallel.factor import pcalu_factor

    store = ResultStore(root=tmp_path / "results")
    fetch = store.fetch_or_run(SPEC_TUNE, overrides=QUICK)
    config = tuned_config(fetch.artifact)
    A = generate_matrix("randn", QUICK["n"], seed=0)
    factor = pcalu_factor(A, config)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    service = SolveService(factor, load_tuned_config("latest"), start=False)
    assert service.config == config
    rhs = A @ np.ones(QUICK["n"])
    future = service.submit(rhs)
    service.drain()
    outcome = future.result(timeout=60)
    assert np.max(np.abs(outcome.x - np.ones(QUICK["n"]))) < 1e-8
    service.close()
