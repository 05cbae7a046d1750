"""Tests for the declarative experiment harness (registry, store, sweep, CLI).

The contract under test:

* every registered paper spec exposes its paper reference and columns (its
  rows are pinned across commits by the ``rows`` lines of
  ``benchmarks/digest.py``);
* the content-addressed store serves repeated runs from the cache with
  bit-identical rows, recomputes under ``--force``, and honours
  ``REPRO_RESULTS_DIR``;
* the sweep executor expands grids, runs jobs genuinely concurrently
  (including through the discrete-event scheduler), and caches every grid
  point;
* CSV/JSON serialization round-trips row sets exactly;
* the ``python -m repro`` CLI wires all of the above together.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.options import SolveConfig, UnknownOptionError
from repro.experiments import rows_to_csv, rows_to_json
from repro.experiments.validation import measure_panel_counts
from repro.harness import (
    ExperimentSpec,
    ResultStore,
    all_specs,
    context_key,
    expand_grid,
    get_spec,
    run_sweep,
    spec_names,
)
from repro.harness import spec as spec_module
from repro.harness.cli import main as cli_main

#: The ten paper specs the registry must expose.
PAPER_SPECS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "figure1", "figure2", "validation",
)


# ------------------------------------------------------------------- registry
def test_registry_exposes_all_paper_specs():
    names = spec_names()
    for name in PAPER_SPECS:
        assert name in names
    # Scenario specs for sweeps beyond the paper's grids.
    for name in ("stability", "panel", "factorization", "panel_counts", "solve"):
        assert name in names


def test_specs_have_paper_references_and_columns():
    for name in PAPER_SPECS:
        spec = get_spec(name)
        assert spec.paper_ref
        assert spec.columns
        assert spec.title


def test_unknown_spec_and_unknown_param_raise():
    with pytest.raises(KeyError):
        get_spec("table99")
    with pytest.raises(KeyError):
        get_spec("table2").resolve_params({"not_a_param": 1})


# ---------------------------------------------------------------------- store
def test_cache_miss_then_hit_bit_identical(tmp_path):
    store = ResultStore(root=tmp_path)
    spec = get_spec("table2")
    first = store.fetch_or_run(spec, quick=True)
    assert not first.cached
    assert first.path.is_file()
    second = store.fetch_or_run(spec, quick=True)
    assert second.cached
    assert second.rows == first.rows
    assert json.dumps(second.rows) == json.dumps(first.rows)
    # Metadata captured alongside the rows.
    assert second.artifact["spec"] == "table2"
    assert "kernel_tier" not in second.artifact  # the code picks kernel paths
    assert second.artifact["engine"]
    assert second.artifact["n_rows"] == len(first.rows)


def test_force_recomputes_and_no_cache_bypasses(tmp_path):
    store = ResultStore(root=tmp_path)
    spec = get_spec("figure1")
    store.fetch_or_run(spec)
    forced = store.fetch_or_run(spec, force=True)
    assert not forced.cached
    # use_cache=False must not read or write anything.
    bypass_store = ResultStore(root=tmp_path / "empty")
    result = bypass_store.fetch_or_run(spec, use_cache=False)
    assert not result.cached
    assert not (tmp_path / "empty").exists()


def test_results_dir_env_var_relocates_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "relocated"))
    store = ResultStore()
    store.fetch_or_run(get_spec("figure1"))
    assert (tmp_path / "relocated" / "figure1").is_dir()
    assert store.count("figure1") == 1


def test_engine_param_specs_record_the_engine_actually_used(tmp_path):
    """Specs with an ``engine`` parameter key/record its one legal value;
    spelling it out is the same run, and any other name fails before
    anything runs."""
    store = ResultStore(root=tmp_path)
    spec = get_spec("panel_counts")
    default = store.fetch_or_run(spec, quick=True)
    assert default.artifact["engine"] == "coroutine"  # the spec's param default
    explicit = store.fetch_or_run(spec, {"engine": "coroutine"}, quick=True)
    assert explicit.cached
    assert explicit.artifact["key"] == default.artifact["key"]
    with pytest.raises(UnknownOptionError):
        store.fetch_or_run(spec, {"engine": "event"}, quick=True)
    assert store.count("panel_counts") == 1


def test_context_key_depends_on_params_tier_and_engine(monkeypatch):
    import repro.harness.store as store_module

    base = context_key("table1", {"seed": 0})
    assert base == context_key("table1", {"seed": 0})
    assert base != context_key("table1", {"seed": 1})
    assert base != context_key("table2", {"seed": 0})
    # The tier and engine entries are constants, still hashed into every key.
    monkeypatch.setattr(store_module, "KEYED_ENGINE", STALE_ENGINE)
    assert base != context_key("table1", {"seed": 0})
    monkeypatch.undo()
    monkeypatch.setattr(store_module, "KEYED_KERNEL_TIER", "reference")
    assert base != context_key("table1", {"seed": 0})


def test_explicit_engine_keys_are_stable_and_the_default_is_coroutine(tmp_path):
    """The keys carry the constant ``"coroutine"`` engine entry, so they are
    byte-equal to those computed with an explicit ``"coroutine"`` before the
    engine stopped being a knob (values pasted from that commit), for specs
    with and without an ``engine`` param."""
    from repro.harness.factor_cache import factor_key

    params = {"seed": 0, "n": 64}
    assert context_key("table1", params) == (
        "40b85c9532845980c87a3ba35b57bcba89f3ee376300390b6ca1229a09359874")
    fixed = ("randn", 96, 3, 2, 4, 8, "ca")
    assert factor_key(*fixed, "summa") == (
        "82a8f3d05bd50b7545d3d96cc1bdb18769423b3e96daa906d6275293ee450d27")
    store = ResultStore(root=tmp_path)
    spec = get_spec("figure1")
    assert "engine" not in spec.params
    assert store.run_config(spec)[2] == context_key("figure1", spec.params)


def test_benchmark_solve_override_keeps_its_key_and_hits(tmp_path):
    """The end-to-end benchmark's ``fetch_or_run(get_spec("solve"),
    overrides={"engine": "coroutine"})`` keys what it always keyed (value
    pasted from the commit before the engine stopped being a knob), records
    the engine, and is a cache hit the second time."""
    store = ResultStore(root=tmp_path)
    cold = store.fetch_or_run(get_spec("solve"), overrides={"engine": "coroutine"})
    assert cold.artifact["key"] == (
        "e8036a213adff2a7f64a9d3243b515ce005598f537dc5273e7be8ba8a4b89bb1")
    assert cold.artifact["engine"] == "coroutine" and not cold.cached
    warm = store.fetch_or_run(get_spec("solve"), overrides={"engine": "coroutine"})
    assert warm.cached and warm.rows == cold.rows


# ------------------------------------------ removed engine names fail early
#: A name older scripts, environments and artifacts may still carry.
STALE_ENGINE = "threaded"
STALE_MESSAGE = (
    f"unknown execution engine {STALE_ENGINE!r}; available: ['coroutine']"
)


def test_stale_engine_argument_raises():
    """A direct ``spec.run`` validates the keyed engine before its runner,
    and never passes the engine to the runner."""
    import dataclasses

    ran = []
    spec = dataclasses.replace(get_spec("panel_counts"),
                               runner=lambda **params: ran.append(params) or [])
    with pytest.raises(UnknownOptionError, match="unknown execution engine") as exc:
        spec.run({"engine": STALE_ENGINE})
    assert exc.value.name == STALE_ENGINE
    assert exc.value.available == ["coroutine"]
    assert ran == []
    assert spec.run({"engine": "coroutine"}) == [] and "engine" not in ran[0]


def test_stale_engine_config_value_raises():
    with pytest.raises(UnknownOptionError) as exc:
        SolveConfig.resolve(engine=STALE_ENGINE)
    assert str(exc.value) == STALE_MESSAGE


def test_stale_engine_cli_flag_exits(tmp_path, capsys):
    """The engine has no flag of its own; ``--set engine=event`` names the
    registered engines and fails before anything runs or is stored."""
    with pytest.raises(SystemExit):  # argparse: no such option
        run_cli(["run", "solve", "--quick", "--engine", "coroutine"], tmp_path)
    assert "unrecognized arguments: --engine" in capsys.readouterr().err
    assert run_cli(["run", "solve", "--quick", "--set", "engine=event"], tmp_path) == 1
    assert "unknown execution engine 'event'; available: ['coroutine']" in (
        capsys.readouterr().err)
    assert not (tmp_path / "solve").exists()


def test_stale_engine_set_override_fails_before_running(tmp_path, capsys):
    assert run_cli(["run", "panel_counts", "--quick",
                    "--set", f"engine={STALE_ENGINE}"], tmp_path) == 1
    assert STALE_MESSAGE in capsys.readouterr().err
    assert not (tmp_path / "panel_counts").exists()  # nothing ran, nothing stored
    with pytest.raises(UnknownOptionError):
        ResultStore(root=tmp_path).run_config(
            get_spec("panel_counts"), {"engine": STALE_ENGINE})


def test_stale_engine_in_tune_artifact_is_ignored(tmp_path, capsys):
    """Readers ignore a tune artifact's recorded engine, as they ignore its
    ``kernel_tier`` column: ``serve --tuned`` runs on the recorded winner."""
    artifact = tmp_path / "tune-old.json"
    artifact.write_text(json.dumps({
        "spec": "tune", "engine": STALE_ENGINE,
        "rows": [{"chosen": True, "grid": "2x2", "b": 8, "nrhs": 1,
                  "pivoting": "pp", "kernel_tier": "auto", "matmul": "summa",
                  "machine": "ibm_power5"}],
    }))
    assert run_cli(["serve", "--n", "32", "--requests", "1", "--tuned", str(artifact),
                    "--factor-cache-dir", str(tmp_path / "factors")], tmp_path) == 0
    err = capsys.readouterr().err
    assert "grid=2x2, b=8, pivoting=pp, matmul=summa" in err


def test_cache_list_still_lists_factors_of_a_removed_engine(tmp_path, capsys):
    import dataclasses

    from repro.harness.factor_cache import FactorCache, factor_key

    cache = FactorCache(root=tmp_path / "factors")
    factor = cache.fetch_or_factor(kind="randn", n=32, seed=0,
                                   config=SolveConfig.resolve(grid=4, b=8)).factor
    old = dataclasses.replace(factor, pivoting="pp", source=None)
    path = cache.save(old, factor_key("randn", 32, 0, 2, 2, 8, "pp"), kind="randn", seed=0)
    with np.load(path) as data:  # the metadata of an older factor names its engine
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays["meta"]))
    arrays["meta"] = np.array(json.dumps({**meta, "engine": STALE_ENGINE}))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    assert run_cli(["cache", "list", "--factor-cache-dir", str(cache.root)],
                   tmp_path) == 0
    out = capsys.readouterr().out
    assert "randn n=32 2x2 b=8 pp/summa" in out and "randn n=32 2x2 b=8 ca/summa" in out


def test_artifacts_listing_and_report_surface(tmp_path):
    store = ResultStore(root=tmp_path)
    store.fetch_or_run(get_spec("figure1"))
    store.fetch_or_run(get_spec("table2"), quick=True)
    everything = store.artifacts()
    assert {a["spec"] for a in everything} == {"figure1", "table2"}
    assert [a["spec"] for a in store.artifacts("figure1")] == ["figure1"]


# ---------------------------------------------------------------------- sweep
def test_expand_grid_cartesian_product_in_order():
    combos = expand_grid({"P": (2, 4), "b": (8, 16, 32)})
    assert len(combos) == 6
    assert combos[0] == {"P": 2, "b": 8}
    assert combos[-1] == {"P": 4, "b": 32}
    assert expand_grid({}) == [{}]


def test_sweep_concurrent_jobs_through_event_engine(tmp_path):
    """≥4 grid points, genuinely concurrent, each running the discrete-event
    scheduler of the virtual MPI.

    Every job first waits on a barrier — the sweep cannot finish unless all
    four jobs are in flight simultaneously — and then measures a TSLU panel
    on its own deterministic SPMD run.
    """
    barrier = threading.Barrier(4, timeout=30)

    def concurrent_panel_counts(m, b, P):
        barrier.wait()
        return [measure_panel_counts(m=m, b=b, P=P)]

    spec = ExperimentSpec(
        name="_test_concurrent_panel",
        title="test-only concurrent panel counts",
        runner=concurrent_panel_counts,
        params={"m": 64, "b": 4, "P": 2},
    )
    spec_module.register(spec)
    try:
        result = run_sweep(
            spec,
            grid={"P": (2, 4), "b": (2, 4)},
            store=ResultStore(root=tmp_path),
            jobs=4,
        )
    finally:
        spec_module._REGISTRY.pop("_test_concurrent_panel", None)

    assert not result.errors
    assert len(result.jobs) == 4
    assert result.max_in_flight == 4
    assert result.misses == 4
    rows = result.rows()
    assert len(rows) == 4
    for row in rows:
        assert row["max_messages_per_rank"] == row["expected_log2P"]


def test_sweep_results_cached_per_grid_point(tmp_path):
    store = ResultStore(root=tmp_path)
    spec = get_spec("panel_counts")
    grid = {"P": (2, 4), "b": (4, 8)}
    first = run_sweep(spec, grid, base={"m": 64}, store=store, jobs=2)
    assert not first.errors
    assert first.misses == 4 and first.hits == 0
    again = run_sweep(spec, grid, base={"m": 64}, store=store, jobs=2)
    assert again.hits == 4 and again.misses == 0
    assert again.rows() == first.rows()
    # Disjoint refinement only computes the new points.
    refined = run_sweep(spec, {"P": (2, 4, 8), "b": (4, 8)},
                        base={"m": 64}, store=store, jobs=2)
    assert refined.hits == 4 and refined.misses == 2


def test_sweep_rows_tag_grid_params():
    spec = get_spec("table2")
    result = run_sweep(spec, {"samples": (1, 2)}, base={"sizes": (64,)},
                       jobs=1, use_cache=False)
    rows = result.rows()
    # 'samples' appears as the table2 column 'S', so it is tagged explicitly.
    assert [r["param:samples"] for r in rows] == [1, 2]
    assert [r["S"] for r in rows] == [1, 2]


# -------------------------------------------------------------- serialization
def parse_rows(text):
    """The rows and metadata of a ``rows_to_json`` document."""
    document = json.loads(text)
    return document["rows"], document["metadata"]


def test_rows_json_round_trip_is_bit_exact():
    rows = [
        {"a": 1, "b": 1.0 / 3.0, "c": "x,y", "d": [1, [2, 3]], "e": True},
        {"a": 2, "b": 1e-300, "c": "", "d": [], "e": False},
    ]
    text = rows_to_json(rows, metadata={"spec": "demo", "engine": "event"})
    back, meta = parse_rows(text)
    assert back == rows
    assert back[0]["b"] == rows[0]["b"]  # exact float equality, not approx
    assert meta == {"spec": "demo", "engine": "event"}


def test_rows_csv_quotes_commas_and_carries_metadata():
    rows = [{"name": "a,b", "vals": [1, 2], "x": 3}]
    text = rows_to_csv(rows, metadata={"spec": "demo"})
    lines = text.splitlines()
    assert lines[0] == "# spec: demo"
    assert lines[1] == "name,vals,x"
    assert lines[2] == '"a,b","[1, 2]",3'


# ------------------------------------------------------------------------ CLI
def run_cli(args, tmp_path):
    return cli_main(list(args) + ["--results-dir", str(tmp_path)])


def test_cli_list(tmp_path, capsys):
    assert run_cli(["list"], tmp_path) == 0
    out = capsys.readouterr().out
    for name in PAPER_SPECS:
        assert name in out


def test_cli_run_quick_caches_and_matches_spec(tmp_path, capsys):
    assert run_cli(["run", "table1", "figure1", "--quick", "--format", "json"],
                   tmp_path) == 0
    captured = capsys.readouterr()
    assert "ran in" in captured.err
    # Run again for a single spec: served from the cache, bit-identical rows.
    assert run_cli(["run", "table1", "--quick", "--format", "json"], tmp_path) == 0
    captured = capsys.readouterr()
    assert "cache hit" in captured.err
    rows, meta = parse_rows(captured.out)
    assert rows == get_spec("table1").run(quick=True)
    assert meta["spec"] == "table1"
    assert "kernel_tier" not in meta
    # --force recomputes.
    assert run_cli(["run", "table1", "--quick", "--force"], tmp_path) == 0
    assert "ran in" in capsys.readouterr().err


def test_cli_run_unknown_spec_fails(tmp_path, capsys):
    assert run_cli(["run", "definitely_not_a_spec"], tmp_path) == 1
    assert "FAILED" in capsys.readouterr().err


def test_cli_set_override(tmp_path, capsys):
    assert run_cli(["run", "table2", "--quick", "--set", "sizes=(32,)",
                    "--format", "json"], tmp_path) == 0
    rows, meta = parse_rows(capsys.readouterr().out)
    assert [r["n"] for r in rows] == [32]
    assert meta["params"]["sizes"] == [32]


def test_cli_engine_flag_takes_precedence_for_engine_param_specs(tmp_path, capsys):
    assert run_cli(["run", "panel_counts", "--quick", "--set", "engine=coroutine",
                    "--format", "json"], tmp_path) == 0
    rows, meta = parse_rows(capsys.readouterr().out)
    assert meta["engine"] == "coroutine"
    assert meta["params"]["engine"] == "coroutine"
    assert rows


def test_cli_sweep_and_report(tmp_path, capsys):
    assert run_cli(["sweep", "panel_counts", "--param", "P=2,4",
                    "--param", "b=4,8", "--set", "m=64", "--jobs", "4"],
                   tmp_path) == 0
    captured = capsys.readouterr()
    assert "4 jobs" in captured.err
    assert "max_messages_per_rank" in captured.out
    # All four grid points are now cached artifacts, visible to report.
    assert run_cli(["report", "panel_counts"], tmp_path) == 0
    out = capsys.readouterr().out
    assert out.count("panel_counts (") == 4
    # Markdown report pastes into docs.
    assert run_cli(["report", "panel_counts", "--format", "markdown"], tmp_path) == 0
    assert "| --" in capsys.readouterr().out


def test_cli_report_empty_store_errors(tmp_path, capsys):
    assert run_cli(["report"], tmp_path) == 1
    assert "no cached artifacts" in capsys.readouterr().err


# ------------------------------------------------------- pivoting in the key
def test_context_key_changes_when_only_pivoting_changes():
    base = context_key("stability", {"seed": 0}, "ca")
    assert base == context_key("stability", {"seed": 0}, "ca")
    assert base != context_key("stability", {"seed": 0}, "ca_prrp")
    assert base != context_key("stability", {"seed": 0}, "pp")


@pytest.mark.parametrize("name", ["figure1", "stability_prrp", "tune"])
def test_spec_without_a_knob_param_keys_and_records_the_default(tmp_path, name):
    """A knob a spec does not take is keyed and recorded at its default."""
    store = ResultStore(root=tmp_path)
    spec = get_spec(name)
    params, config, key = store.run_config(spec, quick=True)
    assert (config.pivoting, config.matmul) == ("ca", "summa")
    assert params.get("engine", "coroutine") == "coroutine"
    assert key == context_key(name, params)


@pytest.mark.parametrize("argv,flag,param", [
    (["run", "figure1", "--quick", "--pivoting", "pp"], "--pivoting", "pivoting"),
    (["run", "table1", "figure1", "--quick", "--pivoting", "pp"], "--pivoting", "pivoting"),
    (["run", "panel_counts", "--quick", "--matmul", "caps"], "--matmul", "matmul"),
    (["sweep", "figure1", "--param", "schedule=binary", "--matmul", "caps"],
     "--matmul", "matmul"),
    (["tune", "--quick", "--pivoting", "pp"], "--pivoting", "pivoting"),
])
def test_knob_flag_without_spec_param_fails_before_running(tmp_path, argv, flag, param):
    """A knob flag is the spec parameter of its name: when the spec lacks it
    the command exits non-zero, names the spec's parameters, runs nothing."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, tmp_path)
    message = str(exc.value)
    assert message.startswith(f"error: {flag} sets parameter {param!r}")
    assert "its parameters: [" in message
    assert list(tmp_path.iterdir()) == []  # nothing ran, nothing stored


def test_pivoting_param_specs_record_the_strategy_actually_used(tmp_path):
    """Specs with a ``pivoting`` parameter key/record that value, not the env."""
    store = ResultStore(root=tmp_path)
    spec = get_spec("stability")
    default = store.fetch_or_run(spec, quick=True)
    assert default.artifact["pivoting"] == "ca"
    prrp = store.fetch_or_run(spec, {"pivoting": "ca_prrp"}, quick=True)
    assert prrp.artifact["pivoting"] == "ca_prrp"
    assert prrp.artifact["key"] != default.artifact["key"]
    assert prrp.rows[0]["method"] == "calu[ca_prrp]"


def test_stability_prrp_spec_runs_and_is_keyed_distinctly(tmp_path):
    """The three-way comparison spec: one row per strategy, cache miss then
    hit, artifact keyed apart from the plain stability spec."""
    store = ResultStore(root=tmp_path)
    spec = get_spec("stability_prrp")
    first = store.fetch_or_run(spec, quick=True)
    assert not first.cached
    assert [r["pivoting"] for r in first.rows] == ["ca", "ca_prrp", "pp"]
    for row in first.rows:
        assert row["max_error"] < 1e-12
    second = store.fetch_or_run(spec, quick=True)
    assert second.cached and second.rows == first.rows
    plain = store.fetch_or_run(get_spec("stability"), quick=True)
    assert plain.artifact["key"] != first.artifact["key"]


def test_solve_spec_runs_caches_and_keys_its_axes(tmp_path):
    """The end-to-end solve scenario: accurate row, model-validated message
    counts, miss-then-hit caching, and distinct keys per (pivoting, nrhs)."""
    store = ResultStore(root=tmp_path)
    spec = get_spec("solve")
    first = store.fetch_or_run(spec, quick=True)
    assert not first.cached
    (row,) = first.rows
    assert row["max_abs_error"] < 1e-12
    assert row["vs_sequential"] < 1e-12
    assert row["messages_match"] is True
    assert row["solve_messages"] == row["model_messages"]
    second = store.fetch_or_run(spec, quick=True)
    assert second.cached and second.rows == first.rows
    pp = store.fetch_or_run(spec, {"pivoting": "pp"}, quick=True)
    assert pp.artifact["key"] != first.artifact["key"]
    assert pp.artifact["pivoting"] == "pp"
    multi = store.fetch_or_run(spec, {"nrhs": 3}, quick=True)
    assert multi.artifact["key"] != first.artifact["key"]
    # Batched RHS: still matching the model (the per-phase message count is
    # nrhs-independent; the totals differ only through the data-dependent
    # refinement count).
    assert multi.rows[0]["messages_match"] is True


# ------------------------------------------------------ harness bugfix locks
def test_artifacts_listing_survives_concurrent_deletion(tmp_path, monkeypatch):
    """Regression: a path that vanishes between load and stat must be
    skipped, not crash the `repro report` listing."""
    from pathlib import Path

    store = ResultStore(root=tmp_path)
    store.fetch_or_run(get_spec("figure1"))
    real_stat = Path.stat

    def racing_stat(self, **kwargs):
        if self.suffix == ".json" and tmp_path in self.parents:
            raise FileNotFoundError(f"{self} vanished mid-listing")
        return real_stat(self, **kwargs)

    monkeypatch.setattr(Path, "stat", racing_stat)
    assert store.artifacts() == []
    monkeypatch.setattr(Path, "stat", real_stat)
    assert [a["spec"] for a in store.artifacts()] == ["figure1"]


def test_sweep_rows_tag_fixed_base_params():
    """Regression: fixed ``base`` overrides must appear in sweep rows under
    the ``param:`` prefix (without clobbering row columns), so the CSV/JSON
    output stays self-describing."""
    spec = get_spec("panel_counts")
    result = run_sweep(spec, {"P": (2, 4)}, base={"m": 64, "b": 4},
                       jobs=1, use_cache=False)
    rows = result.rows()
    assert len(rows) == 2
    for row in rows:
        # 'm' and 'b' are row columns already — never clobbered, not tagged.
        assert row["m"] == 64 and row["b"] == 4
        assert "param:m" not in row and "param:b" not in row
    assert [r["param:P"] if "param:P" in r else r["P"] for r in rows] == [2, 4]
    # base is carried on the result itself for reporting.
    assert result.base == {"m": 64, "b": 4}
    assert [j.grid_point for j in result.jobs] == [{"P": 2}, {"P": 4}]


def test_sweep_rows_tag_base_even_for_externally_built_jobs():
    """rows() must consult SweepResult.base, so jobs constructed without the
    merged base still report it."""
    from repro.harness.sweep import SweepJob, SweepResult
    from repro.harness.store import FetchResult
    from pathlib import Path

    job = SweepJob(index=0, total=1, overrides={"P": 2}, grid_point={"P": 2})
    job.result = FetchResult(
        artifact={"rows": [{"value": 42}]}, cached=False, path=Path("x")
    )
    result = SweepResult(spec=get_spec("panel_counts"), jobs=[job],
                         base={"m": 64})
    rows = result.rows()
    assert rows == [{"param:m": 64, "param:P": 2, "value": 42}]


def test_fetch_or_run_is_single_flight_per_key(tmp_path):
    """Concurrent fetches of one context key compute exactly once: the
    first thread runs and stores, the rest wait on the per-key lock and are
    then served the stored artifact as cache hits."""
    n_threads = 4
    barrier = threading.Barrier(n_threads, timeout=30)
    runs = []

    def counting_runner(m, b, P):
        runs.append(threading.get_ident())
        return [{"m": m, "b": b, "P": P}]

    spec = ExperimentSpec(
        name="_test_single_flight",
        title="test-only single-flight runner",
        runner=counting_runner,
        params={"m": 64, "b": 4, "P": 2},
    )
    spec_module.register(spec)
    store = ResultStore(root=tmp_path)
    results = [None] * n_threads

    def fetch(i):
        barrier.wait()
        results[i] = store.fetch_or_run(spec)

    try:
        threads = [
            threading.Thread(target=fetch, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        spec_module._REGISTRY.pop("_test_single_flight", None)

    assert len(runs) == 1  # the runner executed exactly once
    assert sum(1 for r in results if not r.cached) == 1
    assert sum(1 for r in results if r.cached) == n_threads - 1
    first = results[0].artifact
    for r in results[1:]:
        assert r.artifact["key"] == first["key"]
        assert r.rows == first["rows"]


def test_single_flight_lock_is_per_key_and_per_root(tmp_path):
    from repro.harness import key_lock

    a = key_lock((str(tmp_path / "s1"), "k"))
    assert a is key_lock((str(tmp_path / "s1"), "k"))
    assert a is not key_lock((str(tmp_path / "s1"), "other"))
    assert a is not key_lock((str(tmp_path / "s2"), "k"))


# -------------------------------------------------------- solve-as-a-service
def test_cli_serve_miss_then_hit_and_slo_rows(tmp_path, capsys):
    serve_args = [
        "serve", "--kind", "randn", "--n", "32", "--seed", "0", "--P", "4",
        "--b", "8", "--requests", "6", "--window", "4", "--slo", "1e-9",
        "--factor-cache-dir", str(tmp_path / "factors"),
    ]
    assert run_cli(serve_args, tmp_path) == 0
    captured = capsys.readouterr()
    assert "factor cache miss" in captured.err
    assert "req/s" in captured.err and "p95" in captured.err
    assert "slo_misses=0" in captured.err
    # Six request rows, all meeting their SLO.
    assert "met_slo" in captured.out
    assert captured.out.count("True") == 6
    # Second run: the factorization is served from the cache.
    assert run_cli(serve_args, tmp_path) == 0
    assert "factor cache hit" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--set", "n=1000"], ["--quick"]])
def test_cli_serve_rejects_spec_flags_before_factoring(tmp_path, capsys, flag):
    """``serve`` runs no spec, so ``--set`` / ``--quick`` are usage errors
    (exit 2), not flags silently ignored after a factorization."""
    factors = tmp_path / "factors"
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["serve", "--n", "48", "--P", "4", "--b", "8", "--requests", "2",
                 "--factor-cache-dir", str(factors), *flag], tmp_path)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not factors.exists() or not any(factors.iterdir())


def _tune_artifact(path):
    """A stored tune artifact whose winner is CAPS, written while the kernel
    tier was a search axis (its ``kernel_tier`` column is ignored)."""
    path.write_text(json.dumps({
        "spec": "tune", "engine": "coroutine",
        "rows": [{"chosen": True, "grid": "2x2", "b": 8, "nrhs": 1,
                  "pivoting": "ca_prrp", "kernel_tier": "reference",
                  "matmul": "caps", "machine": "ibm_power5"}],
    }))
    return str(path)


def test_cli_config_overlays_tuned_values_under_explicit_flags(tmp_path):
    from repro.harness.cli import build_parser, config_from_args

    ref = _tune_artifact(tmp_path / "tune.json")
    parse = build_parser().parse_args
    tuned = config_from_args(parse(["serve", "--tuned", ref]))
    assert (tuned.pivoting, tuned.matmul) == ("ca_prrp", "caps")
    assert (tuned.grid, tuned.b) == ((2, 2), 8)
    # The machine never comes from the artifact.
    assert tuned.machine is None
    flags = config_from_args(parse(["serve", "--tuned", ref, "--matmul", "summa",
                                    "--P", "8", "--b", "4"]))
    assert (flags.matmul, flags.grid, flags.b) == ("summa", (2, 4), 4)
    assert flags.pivoting == "ca_prrp"
    plain = config_from_args(parse(["serve"]))
    assert (plain.grid, plain.b) == (None, None)  # the factor cache's P=4, b=16


def test_truncated_tune_artifact_raises_value_error_naming_the_path(tmp_path):
    from repro.harness.tuning import load_tune_artifact

    _tune_artifact(tmp_path / "tune.json")
    truncated = tmp_path / "tune-truncated.json"
    truncated.write_text((tmp_path / "tune.json").read_text()[:40])
    with pytest.raises(ValueError) as exc:
        load_tune_artifact(str(truncated))
    assert str(truncated) in str(exc.value)
    with pytest.raises(SystemExit) as exit_exc:
        run_cli(["serve", "--n", "32", "--requests", "1", "--tuned", str(truncated),
                 "--factor-cache-dir", str(tmp_path / "factors")], tmp_path)
    assert str(exit_exc.value).startswith(f"error: {truncated}")
    assert not (tmp_path / "factors").exists()  # failed before factoring


def test_result_store_entries_and_purge(tmp_path):
    store = ResultStore(root=tmp_path)
    assert store.entries() == [] and store.purge() == 0
    store.fetch_or_run(get_spec("figure1"))
    store.fetch_or_run(get_spec("table2"), quick=True)
    (tmp_path / "empty_spec").mkdir()
    entries = store.entries()
    assert [e["spec"] for e in entries] == ["figure1", "table2"]
    assert all(e["artifacts"] == 1 and e["bytes"] > 0 for e in entries)
    assert store.purge() == 2
    assert store.entries() == [] and store.count("figure1") == 0


@pytest.mark.parametrize("cut", ["empty", "cut-10", "cut-half", "cut-last-2"])
def test_truncated_result_artifact_is_a_miss(tmp_path, cut):
    store, spec = ResultStore(root=tmp_path), get_spec("figure1")
    first = store.fetch_or_run(spec)
    text = first.path.read_text()
    size = {"empty": 0, "cut-10": 10, "cut-half": len(text) // 2,
            "cut-last-2": len(text) - 2}[cut]
    first.path.write_text(text[:size])
    assert store.load(first.path) is None
    again = store.fetch_or_run(spec)
    assert not again.cached and again.rows == first.rows  # recomputed, same bits
    assert store.fetch_or_run(spec).cached


def test_result_store_lists_loadable_artifacts_and_purges_every_file(tmp_path):
    store = ResultStore(root=tmp_path)
    good = store.fetch_or_run(get_spec("figure1"))
    corrupt = good.path.with_name("figure1-000000000000.json")
    corrupt.write_text(good.path.read_text()[:100])
    stray = good.path.with_name(f".{good.path.name}.999.1.tmp")  # killed writer
    stray.write_text("{")
    assert store.entries() == [
        {"spec": "figure1", "artifacts": 1, "bytes": good.path.stat().st_size}
    ]
    assert store.count("figure1") == 1 and len(store.artifacts()) == 1
    assert len(store.files()) == 2
    assert store.purge() == 2
    assert list(tmp_path.glob("*/*.json")) == [] and stray.is_file()


def test_write_atomic_failure_leaves_no_file(tmp_path):
    from repro.harness.store import write_atomic

    def failing(fh):
        fh.write(b'{"partial": ')
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(tmp_path / "spec" / "spec-0.json", failing)
    assert list((tmp_path / "spec").iterdir()) == []


def test_cli_cache_purge_leaves_no_artifact_file_after_corruption(tmp_path, capsys):
    factors = tmp_path / "factors"
    assert run_cli(["run", "figure1"], tmp_path) == 0
    assert run_cli(["serve", "--n", "32", "--P", "4", "--b", "8", "--requests", "1",
                    "--factor-cache-dir", str(factors)], tmp_path) == 0
    (factor,) = factors.glob("factor-*.npz")
    (factor.parent / f".{factor.name}.999.1.tmp").write_bytes(factor.read_bytes()[:100])
    (result,) = tmp_path.glob("figure1/*.json")
    result.write_text(result.read_text()[:40])
    capsys.readouterr()
    assert run_cli(["cache", "list", "--factor-cache-dir", str(factors)], tmp_path) == 0
    out = capsys.readouterr().out
    assert "randn n=32" in out and "figure1" not in out  # the cut JSON is not listed
    assert run_cli(["cache", "purge", "--factor-cache-dir", str(factors)], tmp_path) == 0
    assert capsys.readouterr().err.startswith("purged 1 result artifacts")
    assert list(tmp_path.glob("*/*.json")) == list(factors.glob("factor-*.npz")) == []


def test_cli_cache_list_and_purge(tmp_path, capsys):
    factors = str(tmp_path / "factors")
    # Populate both stores: one experiment artifact, one factor.
    assert run_cli(["run", "figure1"], tmp_path) == 0
    assert run_cli(
        ["serve", "--n", "32", "--P", "4", "--b", "8", "--requests", "1",
         "--factor-cache-dir", factors],
        tmp_path,
    ) == 0
    capsys.readouterr()

    assert run_cli(["cache", "list", "--factor-cache-dir", factors], tmp_path) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "figure1" in out          # result-store breakdown
    assert "randn n=32" in out       # factor entry
    assert "bytes total" in captured.err

    assert run_cli(["cache", "purge", "--factor-cache-dir", factors], tmp_path) == 0
    assert "purged" in capsys.readouterr().err
    assert run_cli(["cache", "list", "--factor-cache-dir", factors], tmp_path) == 0
    out = capsys.readouterr().out
    assert "randn n=32" not in out
