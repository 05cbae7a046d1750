"""Smoke test of the e2e benchmark: every workload, traced and untraced.

Runs the four workloads at ``--scale smoke`` in-process (a few seconds in
all) and checks the plumbing the full benchmark relies on: every metric is
present, finite and carries its unit; nothing fails a check; the layer self
times account for the traced op; the tracer resolves every boundary and
removes every wrapper.  It measures nothing — sizes this small say nothing
about speed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import compare
import workloads
from boundaries import EXTRA, LAYERS
from metrics import END_TO_END, PER_LAYER, WORKLOADS
from spans import leftover_wrappers

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        (name, trace): workloads.run_workload(
            name, seed=0, seconds=0.2, trace=trace, scale="smoke", tmp_root=tmp
        )
        for name in WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_reported_and_nothing_fails(results, name, trace):
    result = results[name, trace]
    assert result["failed"] == 0 and result["correct"], result["failures"]
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [metric[0] for metric in expected]
    for metric_name, unit, *_ in expected:
        metric = result["metrics"][metric_name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"]), metric_name
        if not trace:
            assert metric["value"] > 0, f"{metric_name} must never be 0"
    assert result["env"]["nproc"] >= 1 and result["env"]["env.calib_py_s"] > 0


@pytest.mark.parametrize("name", ["solve_ref", "engine_p1024", "kernels_seq"])
def test_layer_self_times_account_for_the_traced_op(results, name):
    traced = results[name, True]
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    # Self times partition the root spans; the root spans are the op.
    assert 0.99 <= values["trace.coverage"] <= 1.0 + 1e-9
    assert values["trace.spans"] > 0
    assert values["trace.unresolved"] == 0, traced["info"]
    assert sum(values[f"{layer}.self_s"] for layer in LAYERS) > 0


def test_kernels_seq_bypasses_the_simulator(results):
    values = {k: m["value"] for k, m in results["kernels_seq", True]["metrics"].items()}
    assert values["distsim.self_s"] == 0 and values["distsim.calls"] == 0
    assert values["kernels.self_s"] > 0 and values["core.calu_prrp_s"] > 0


def test_serving_layers_show_in_the_trace(results):
    values = {k: m["value"] for k, m in results["serve_p64", True]["metrics"].items()}
    assert values["harness.self_s"] > 0 and values["scalapack.pdtrsv_s"] > 0
    assert values["harness.serving.batches"] > 0
    assert values["harness.factor_cache.bytes"] > 0


def test_tracer_resolves_every_boundary_and_cleans_up(results):
    tracer = workloads.make_tracer()
    tracer.install()
    try:
        names = {b.name for b in tracer.boundaries}
        assert not tracer.unresolved and not tracer.never_bound
        assert len(names) >= len(EXTRA)
        assert leftover_wrappers()
    finally:
        assert tracer.uninstall() == []
    assert leftover_wrappers() == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1] == "benchmarks/e2e/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_compare_verdicts(results):
    def result_file(scale_host):
        runs = {}
        for name in WORKLOADS:
            run = json.loads(json.dumps(
                {k: v for k, v in results[name, False].items() if k != "_spans"},
                default=float,
            ))
            run["metrics"]["host_s"]["value"] *= scale_host
            run["samples"]["host_s"] = [s * scale_host for s in run["samples"]["host_s"]]
            runs[name] = [run]
        return {"schema": 1, "seed": 0, "workloads": runs}

    same = compare.rows(result_file(1.0), result_file(1.0), same_commit=True)
    assert {row["verdict"] for row in same} == {"unchanged"}
    slower = compare.rows(result_file(1.0), result_file(2.0), same_commit=False)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in slower}
    assert verdicts["solve_ref", "host_s"] in ("regressed", "unresolved")
    assert verdicts["solve_ref", "sim_messages"] == "unchanged"
    faster = compare.rows(result_file(1.0), result_file(0.2), same_commit=False)
    assert {r["verdict"] for r in faster if r["metric"] == "host_s"} == {"improved"}
