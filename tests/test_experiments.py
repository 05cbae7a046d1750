"""Tests for the experiment harness (one per table/figure)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    figure1,
    format_table,
    panel_tables,
    rows_to_csv,
    validation,
)
from repro.harness import ResultStore, get_spec, run_sweep


def run_spec(name, quick=False, **overrides):
    return get_spec(name).run(overrides, quick=quick)


# -------------------------------------------------------------------- Figure 1
def test_figure1_reproduces_paper_narrative():
    res = figure1.run()
    assert res["pivots_match_gepp"]
    assert sorted(res["tslu_pivots"]) == [5, 10]
    assert res["factorization_residual"] < 1e-12
    text = figure1.describe(res)
    assert "TSLU" in text and "GEPP" in text


def test_figure1_rounds_shrink_to_single_winner_set():
    res = figure1.run()
    assert len(res["rounds"][0]) == 4
    assert len(res["rounds"][-1]) == 1


def test_unknown_machine_through_a_runner_spec():
    """Runner specs and ``SolveConfig.machine_model`` share one machine table
    and one lookup, so an unknown name fails the same way through either."""
    from repro.core.options import SolveConfig, UnknownOptionError

    with pytest.raises(UnknownOptionError) as excinfo:
        get_spec("factorization").run(overrides={"machine": "unit"})
    assert str(excinfo.value) == (
        "unknown machine 'unit'; available: ['cray_xt4', 'ibm_power5']"
    )
    with pytest.raises(UnknownOptionError) as same:
        SolveConfig.resolve(machine="unit").machine_model()
    assert str(same.value) == str(excinfo.value)


# -------------------------------------------------------------------- Figure 2
def test_figure2_small_run_trends():
    rows = run_spec("figure2", sizes=(64, 128), configs=((2, 8), (4, 8)), samples=1)
    calu_rows = [r for r in rows if r["method"] == "calu"]
    assert calu_rows, "no CALU rows produced"
    for r in calu_rows:
        assert r["tau_min"] > 0.05
        assert r["gT"] > 0
    # Growth increases with n on average.
    g64 = np.mean([r["gT"] for r in calu_rows if r["n"] == 64])
    g128 = np.mean([r["gT"] for r in calu_rows if r["n"] == 128])
    assert g128 > 0.5 * g64


def test_figure2_calu_rows_are_the_stability_prrp_ca_point():
    """Figure 2's calu rows and ``stability_prrp``'s ``ca`` row are one
    measurement: the same sample means at the same (n, P, b)."""
    fig = run_spec("figure2", sizes=(64,), configs=((2, 8),), samples=2,
                   include_gepp=False)
    prrp = run_spec("stability_prrp", n=64, P=2, b=8, samples=2)
    (ca,) = [r for r in prrp if r["pivoting"] == "ca"]
    assert [(r["gT"], r["tau_min"], r["tau_ave"]) for r in fig] == [
        (ca["gT"], ca["tau_min"], ca["tau_ave"])
    ]


@pytest.mark.parametrize("name", ["table2", "figure2", "stability_prrp"])
def test_samples_below_one_fails_before_anything_runs(name, monkeypatch, tmp_path):
    """A sample mean over no samples has no value: ``samples=0`` raises a
    ``ValueError`` naming ``samples`` before any matrix is factored, and the
    store keeps nothing."""
    from repro.experiments import runners

    def factored(*args, **kwargs):
        raise AssertionError("a matrix was factored")

    monkeypatch.setattr(runners, "recorded_calu", factored)
    monkeypatch.setattr(runners, "stability_row_gepp", factored)
    with pytest.raises(ValueError, match="samples"):
        run_spec(name, quick=True, samples=0)
    store = ResultStore(root=tmp_path)
    with pytest.raises(ValueError, match="samples"):
        store.fetch_or_run(get_spec(name), {"samples": 0}, quick=True)
    assert not list(tmp_path.rglob("*.json"))


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("figure2", {"configs": ((2, 128),), "include_gepp": False}),
        ("stability_prrp", {"b": 64}),
    ],
    ids=["figure2", "stability_prrp"],
)
def test_samples_below_one_fails_where_no_point_fits(name, overrides, tmp_path):
    """``samples`` is checked before the skip rule: with no (n, P, b) point
    that fits, ``samples=0`` still raises and the store keeps nothing."""
    assert run_spec(name, quick=True, **overrides) == []
    with pytest.raises(ValueError, match="samples"):
        run_spec(name, quick=True, samples=0, **overrides)
    store = ResultStore(root=tmp_path)
    with pytest.raises(ValueError, match="samples"):
        store.fetch_or_run(get_spec(name), {"samples": 0, **overrides}, quick=True)
    assert not list(tmp_path.rglob("*.json"))


# ------------------------------------------------------------------ Tables 1-2
def test_table1_rows_pass_hpl():
    rows = run_spec("table1", sweep=((64, ((2, 8), (4, 8))), (128, ((4, 16),))))
    assert len(rows) == 3
    assert all(r["hpl_passed"] for r in rows)
    assert all(r["tau_min"] > 0 for r in rows)


def test_table1_rows_are_stability_points():
    """Table 1 is the ``stability`` scenario over its (n, P, b) grid."""
    rows = run_spec("table1", quick=True)
    points = [
        row
        for n, configs in get_spec("table1").quick["sweep"]
        for P, b in configs
        for row in run_spec("stability", n=n, P=P, b=b)
    ]
    assert rows == [{k: v for k, v in p.items() if k != "seed"} for p in points]


def test_table2_rows_pass_hpl():
    rows = run_spec("table2", sizes=(64, 128), samples=2)
    assert len(rows) == 2
    assert all(r["hpl_passed"] for r in rows)
    assert all(r["method"] == "gepp" for r in rows)


# ------------------------------------------------------------------ Tables 3-4
@pytest.mark.parametrize("name", ["table3", "table4"], ids=["run_table3", "run_table4"])
def test_panel_tables_structure(name):
    rows = run_spec(name, heights=(10_000, 100_000), widths=(50, 150), procs=(4, 16, 64))
    assert rows
    for r in rows:
        assert r["ratio_rec"] > 0 and r["ratio_cl"] > 0
        assert r["m"] >= r["P"] * r["n=b"]


def test_panel_tables_skip_too_small_configurations():
    rows = run_spec("table3", heights=(1_000,), widths=(50,), procs=(4, 64))
    assert all(r["P"] != 64 for r in rows)  # 1000 < 64*50 -> skipped


def test_panel_tables_are_a_grid_over_the_panel_point():
    grid = {"heights": (1_000, 10_000), "widths": (50, 150), "procs": (4, 64)}
    for name in ("table3", "table4"):
        machine = get_spec(name).params["machine"]
        points = [
            row
            for m in grid["heights"]
            for b in grid["widths"]
            for P in grid["procs"]
            for row in run_spec("panel", m=m, b=b, P=P, machine=machine)
        ]
        assert run_spec(name, **grid) == points


def test_panel_tables_best_improvement_reasonable():
    rows = run_spec("table3")
    best = panel_tables.best_improvement(rows)
    assert best["best_ratio"] > 1.5  # TSLU clearly wins somewhere


def test_tslu_beats_pdgetf2_on_large_latency_bound_panels():
    """The shape claim of Tables 3-4: the ratio is > 1 in the latency regime."""
    for name in ("table3", "table4"):
        rows = run_spec(name, heights=(10_000,), widths=(50,), procs=(32, 64))
        assert all(r["ratio_rec"] > 1.0 for r in rows)


# ------------------------------------------------------------------ Tables 5-7
@pytest.mark.parametrize("name", ["table5", "table6"], ids=["run_table5", "run_table6"])
def test_factorization_tables_structure(name):
    rows = run_spec(name, orders=(1_000, 10_000), blocks=(50,), proc_counts=(4, 64))
    assert rows
    for r in rows:
        assert r["improvement"] > 0
        assert r["calu_gflops"] > 0
        assert 0 < r["percent_peak"] <= 100


def test_factorization_tables_are_a_grid_over_the_factorization_point():
    grid = {"orders": (1_000, 5_000), "blocks": (50, 150), "proc_counts": (4, 12, 64)}
    for name in ("table5", "table6"):
        machine = get_spec(name).params["machine"]
        points = [
            row
            for m in grid["orders"]
            for b in grid["blocks"]
            for P in grid["proc_counts"]
            for row in run_spec("factorization", m=m, b=b, P=P, machine=machine)
        ]
        assert run_spec(name, **grid) == points


def test_table5_improvement_grows_with_process_count():
    rows = run_spec("table5", orders=(1_000,), blocks=(50,), proc_counts=(4, 16, 64))
    imps = [r["improvement"] for r in rows]
    assert imps == sorted(imps)


@pytest.mark.parametrize("name, overrides", [
    ("factorization", {"P": 12}),
    ("table5", {"proc_counts": (12,)}),
], ids=["factorization", "table5"])
def test_any_process_count_runs_on_its_default_grid(name, overrides):
    """P outside the paper's 4..64 runs on ``ProcessGrid.default_for(P)``."""
    rows = run_spec(name, quick=True, **overrides)
    assert rows and {(r["P"], r["grid"]) for r in rows} == {(12, "3x4")}


@pytest.mark.parametrize("name, overrides", [
    ("factorization", {"P": 0}),
    ("table5", {"proc_counts": (0,)}),
    ("table7", {"proc_counts": (0,)}),
], ids=["factorization", "table5", "table7"])
def test_zero_processes_fails_before_anything_is_stored(name, overrides, tmp_path):
    store = ResultStore(root=tmp_path)
    with pytest.raises(ValueError, match="at least one process"):
        store.fetch_or_run(get_spec(name), overrides, quick=True)
    assert not list(tmp_path.rglob("*.json"))


def test_table7_speedups_and_shape():
    rows = run_spec("table7", orders=(1_000, 10_000), proc_counts=(16, 64), blocks=(50, 100))
    assert len(rows) == 4
    for r in rows:
        assert r["speedup"] >= 1.0
    # Small matrices benefit more (latency-bound), as in the paper.
    by_machine = {}
    for r in rows:
        by_machine.setdefault(r["machine"], {})[r["m"]] = r["speedup"]
    for mach, d in by_machine.items():
        assert d[1_000] >= d[10_000]


def test_table7_sweeps_its_machines_axis(tmp_path):
    """A sweep over ``machines`` passes one bare name per job: each job is
    that one machine's rows, not one machine per character."""
    spec = get_spec("table7")
    result = run_sweep(spec, {"machines": ["ibm_power5", "cray_xt4"]},
                       store=ResultStore(root=tmp_path), quick=True, jobs=1)
    assert not result.errors
    both = run_spec("table7", quick=True)
    for job in result.jobs:
        name = job.overrides["machines"]
        assert job.result.rows == [r for r in both if r["machine"] == name]


# ------------------------------------------------------------------- validation
def test_validation_panel_counts_match_log2P():
    row = validation.measure_panel_counts(m=64, b=4, P=4)
    assert row["max_messages_per_rank"] == row["expected_log2P"]


def test_validation_factorization_counts_calu_fewer_messages():
    rows = validation.measure_factorization_counts(n=32, b=8, Pr=2, Pc=2)
    by_alg = {r["algorithm"]: r for r in rows}
    assert by_alg["calu"]["max_messages_per_rank"] < by_alg["pdgetrf"]["max_messages_per_rank"]
    assert by_alg["calu"]["factorization_error"] < 1e-10
    assert by_alg["pdgetrf"]["factorization_error"] < 1e-10


# ------------------------------------------- registered specs keep the paper's shape
def _hpl_passed(rows):
    """Table 2: every configuration passes the HPL criterion, as in the paper."""
    assert all(r["hpl_passed"] for r in rows)


def _table1(rows):
    """Table 1: ca-pivoting passes HPL and keeps its pivot threshold above 0.1."""
    _hpl_passed(rows)
    assert all(r["tau_min"] > 0.1 for r in rows)


def _panel_ratios(rows):
    """Tables 3-4: TSLU (recursive) wins clearly on large, latency- or
    memory-bound panels, and recursion matters most for the very tall ones."""
    assert all(r["ratio_rec"] > 1.0 for r in rows if r["m"] >= 100_000)
    tallest = [r for r in rows if r["m"] == 1_000_000]
    assert tallest
    assert all(r["ratio_rec"] >= r["ratio_cl"] * 0.95 for r in tallest)


def _improvement(rows):
    """Tables 5-6: CALU never loses badly to PDGETRF."""
    assert all(r["improvement"] > 0.9 for r in rows)


def _table5(rows):
    """Table 5: on the POWER5 CALU also wins most for the small matrix on many
    processors."""
    _improvement(rows)
    small = [r for r in rows if r["m"] == 1_000 and r["P"] == 32]
    assert small and all(r["improvement"] > 1.2 for r in small)


def _best_vs_best(rows):
    """Table 7: best CALU beats best PDGETRF, less so as the matrix grows."""
    assert all(r["speedup"] >= 1.0 for r in rows)
    for machine in {r["machine"] for r in rows}:
        series = [r["speedup"] for r in rows if r["machine"] == machine]
        assert series == sorted(series, reverse=True)


def _figure1(rows):
    """Figure 1: the worked TSLU example picks GEPP's pivots."""
    summary = rows[-1]
    assert summary["record"] == "summary"
    assert summary["pivots_match_gepp"]
    assert summary["factorization_residual"] < 1e-12


def _figure2(rows):
    """Figure 2: CALU keeps tau_min well above zero and g_T within a small
    multiple of n^(2/3) (the paper sees tau_min >= 0.33 at full size)."""
    calu_rows = [r for r in rows if r["method"] == "calu"]
    assert calu_rows
    assert all(r["tau_min"] > 0.15 for r in calu_rows)
    assert all(r["gT"] < 12 * r["n_two_thirds"] for r in calu_rows)


#: spec -> (run at ``quick`` sizes?, the paper-shape check on its rows).  The
#: model tables and Figure 1 run at their registered defaults.
PAPER_SHAPE = {
    "table1": (True, _table1),
    "table2": (True, _hpl_passed),
    "table3": (False, _panel_ratios),
    "table4": (False, _panel_ratios),
    "table5": (False, _table5),
    "table6": (False, _improvement),
    "table7": (False, _best_vs_best),
    "figure1": (False, _figure1),
    "figure2": (True, _figure2),
}


@pytest.mark.parametrize("name", sorted(PAPER_SHAPE))
def test_registered_spec_keeps_the_paper_shape(name):
    quick, check = PAPER_SHAPE[name]
    rows = get_spec(name).run(quick=quick)
    assert rows
    check(rows)


# -------------------------------------------------------------------- reporting
def test_format_table_and_csv():
    rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": 0.5}]
    text = format_table(rows, title="demo")
    assert "demo" in text and "2.346" in text
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0] == "a,b"
    assert format_table([], title="x").startswith("x")
    assert rows_to_csv([]) == ""


def test_format_table_right_aligns_numeric_columns():
    rows = [{"name": "x", "n": 7}, {"name": "longer", "n": 1024}]
    lines = format_table(rows).splitlines()
    # Header 'n' and both values end-aligned at the right edge of the column.
    assert lines[0] == "name       n"
    assert lines[2] == "x          7"
    assert lines[3] == "longer  1024"


def test_format_table_markdown_mode():
    rows = [{"name": "a|b", "n": 7}, {"name": "c", "n": 1024}]
    text = format_table(rows, title="demo", markdown=True)
    lines = text.splitlines()
    assert lines[0] == "**demo**"
    assert lines[2].startswith("| name") and lines[2].endswith("n |")
    # Numeric column gets a right-alignment marker; pipes in cells escaped.
    assert lines[3].rstrip(" |").endswith(":")
    assert "a\\|b" in text
