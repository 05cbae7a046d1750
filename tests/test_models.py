"""Tests for the analytic performance models (Equations 1-3) and comparisons."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.costs import CostLedger
from repro.layouts.grid import ProcessGrid
from repro.machines import MachineModel, cray_xt4, ibm_power5, unit_machine
from repro.models import (
    best_vs_best,
    calu_cost,
    calu_flops,
    compare_factorization,
    compare_panel,
    pdgetf2_cost,
    pdgetrf_cost,
    recursive_speedup,
    tslu_cost,
)


def paper_grid(P):
    grid = ProcessGrid.default_for(P)
    return grid.nprow, grid.npcol


def test_default_grids_are_the_papers():
    """The paper runs P = 4..64 on 2x2, 2x4, 4x4, 4x8 and 8x8 grids."""
    assert [paper_grid(P) for P in (4, 8, 16, 32, 64)] == [
        (2, 2), (2, 4), (4, 4), (4, 8), (8, 8)
    ]


# ------------------------------------------------------------------ CostLedger
def test_cost_ledger_addition_and_scaling():
    a = CostLedger(muladds=10, messages_col=2, words_row=5)
    b = CostLedger(muladds=5, messages_col=1, messages_row=4)
    c = a + b
    assert c.muladds == 15 and c.messages_col == 3 and c.messages_row == 4
    d = a.scaled(2.0)
    assert d.muladds == 20 and d.words_row == 10


def test_cost_ledger_time_and_breakdown():
    machine = MachineModel(name="m", gamma=1.0, gamma_d=2.0, alpha=10.0, beta=0.1)
    ledger = CostLedger(muladds=5, divides=1, messages_col=2, words_col=100)
    assert ledger.time(machine) == pytest.approx(5 + 2 + 20 + 10)
    bd = ledger.breakdown(machine)
    assert bd["total"] == pytest.approx(ledger.time(machine))
    assert bd["latency"] == pytest.approx(20)


def test_cost_ledger_channel_pricing():
    machine = MachineModel(
        name="m", gamma=0, gamma_d=0, alpha=1.0, beta=0.0, alpha_row=5.0, alpha_col=2.0
    )
    ledger = CostLedger(messages_row=1, messages_col=1, messages_any=1)
    assert ledger.time(machine) == pytest.approx(5 + 2 + 1)


# -------------------------------------------------------------------- machines
def test_machine_models_have_paper_parameters():
    p5 = ibm_power5()
    assert p5.peak_flops_per_proc == pytest.approx(7.6e9)
    assert p5.alpha == pytest.approx(4.5e-6)
    xt4 = cray_xt4()
    assert xt4.peak_flops_per_proc == pytest.approx(5.2e9)


def test_machine_message_and_compute_time():
    m = MachineModel(name="m", gamma=1e-9, gamma_d=1e-8, alpha=1e-6, beta=1e-9)
    assert m.message_time(1000) == pytest.approx(1e-6 + 1000 * 1e-9)
    assert m.compute_time(1e6) == pytest.approx(1e-3)


def test_machine_percent_of_peak():
    m = ibm_power5()
    pct = m.percent_of_peak(7.6e9, 1.0, 1)
    assert pct == pytest.approx(100.0)


def test_unit_machine_counts_messages():
    m = unit_machine()
    assert m.message_time(10_000) == 1.0
    assert m.compute_time(1e9) == 0.0


def test_machine_rejects_negative_parameters():
    with pytest.raises(ValueError):
        MachineModel(name="bad", gamma=-1, gamma_d=0, alpha=0, beta=0)


# ------------------------------------------------------------------- Equation 1
def test_tslu_message_count_is_log2P():
    c = tslu_cost(m=1e5, b=100, P=16)
    assert c.messages_col == math.log2(16)
    assert c.words_col == pytest.approx(100 * 100 * 4)


def test_pdgetf2_message_count_is_2b_log2P():
    c = pdgetf2_cost(m=1e5, b=100, P=16)
    assert c.messages_col == pytest.approx(2 * 100 * 4)


def test_tslu_latency_advantage_factor_b():
    t = tslu_cost(1e5, 100, 16)
    s = pdgetf2_cost(1e5, 100, 16)
    assert s.messages_col / t.messages_col == pytest.approx(2 * 100)


def test_tslu_flops_roughly_double_pdgetf2():
    """TSLU factors the panel twice (paper, Section 3)."""
    t = tslu_cost(1e6, 100, 16)
    s = pdgetf2_cost(1e6, 100, 16)
    assert 1.5 < t.muladds / s.muladds < 2.5


def test_tslu_cost_invalid():
    with pytest.raises(ValueError):
        tslu_cost(0, 10, 4)


# ---------------------------------------------------------------- Equations 2-3
def test_calu_latency_lower_than_pdgetrf_by_factor_b():
    n, b, Pr, Pc = 10_000, 100, 8, 8
    c = calu_cost(n, n, b, Pr, Pc)
    s = pdgetrf_cost(n, n, b, Pr, Pc)
    ratio = s.messages_col / c.messages_col
    # The paper: lower by a factor b(1 + 1/log2 Pr) ~ 2n log2 Pr / (3n/b log2 Pr).
    assert ratio == pytest.approx(2 * b / 3, rel=0.3)


def test_calu_and_pdgetrf_same_bandwidth_and_leading_flops():
    n, b, Pr, Pc = 5_000, 50, 4, 8
    c = calu_cost(n, n, b, Pr, Pc)
    s = pdgetrf_cost(n, n, b, Pr, Pc)
    assert c.words_col == pytest.approx(s.words_col)
    assert c.words_row == pytest.approx(s.words_row)
    # CALU adds only a lower-order flop term (the redundant panel work),
    # so the totals agree to within ~10 % at this size.
    assert c.muladds == pytest.approx(s.muladds, rel=0.10)


def test_calu_extra_flops_term_is_small_fraction():
    n, b, Pr, Pc = 10_000, 50, 8, 8
    c = calu_cost(n, n, b, Pr, Pc)
    dominant = (n**3 * 2 / 3) / (Pr * Pc)
    assert (c.muladds - dominant) / dominant < 0.2


def test_calu_swap_scheme_ablation():
    n, b, Pr, Pc = 10_000, 100, 8, 8
    good = calu_cost(n, n, b, Pr, Pc, swap_scheme="reduce_broadcast")
    bad = calu_cost(n, n, b, Pr, Pc, swap_scheme="pdlaswp")
    assert bad.messages_col > good.messages_col
    with pytest.raises(ValueError):
        calu_cost(n, n, b, Pr, Pc, swap_scheme="nope")


def test_calu_flops_formula():
    assert calu_flops(1000, 1000) == pytest.approx(1000**3 * 2 / 3, rel=1e-6)


# ------------------------------------------------------------------ comparisons
def test_compare_panel_ratio_greater_than_one_when_latency_dominates():
    cmp_ = compare_panel(m=10_000, b=50, P=64, machine=ibm_power5())
    assert cmp_.ratio > 1.0


def test_compare_panel_classic_vs_recursive():
    rec = compare_panel(1_000_000, 150, 16, ibm_power5(), local_kernel="rgetf2")
    cla = compare_panel(1_000_000, 150, 16, ibm_power5(), local_kernel="getf2")
    assert rec.ratio > cla.ratio  # recursion helps on huge panels


def test_recursive_speedup_monotone():
    assert recursive_speedup(1e3) <= recursive_speedup(1e5) <= recursive_speedup(1e6)
    assert recursive_speedup(1e2) == 1.0


def test_compare_factorization_calu_wins_on_small_matrix_many_procs():
    """The paper's headline regime: small matrix, many processors."""
    cmp_ = compare_factorization(1_000, 50, 4, 8, ibm_power5())
    assert cmp_.ratio > 1.2


def test_compare_factorization_converges_at_scale():
    """For large matrices on few processors the two algorithms converge."""
    cmp_ = compare_factorization(10_000, 50, 2, 2, ibm_power5())
    assert 0.9 < cmp_.ratio < 1.2


def test_best_vs_best_speedup_at_least_one():
    grids = [paper_grid(p) for p in (8, 16, 32, 64)]
    row = best_vs_best(5_000, ibm_power5(), grids, (50, 100, 150))
    assert row["speedup"] >= 1.0
    assert row["calu_gflops"] > 0


@pytest.mark.parametrize("machine_factory", [ibm_power5, cray_xt4])
def test_speedup_decreases_with_matrix_size(machine_factory):
    """Latency matters less as the matrix grows (paper, Tables 5-7)."""
    machine = machine_factory()
    grids = [paper_grid(p) for p in (8, 16, 32, 64)]
    speedups = [
        best_vs_best(m, machine, grids, (50, 100, 150))["speedup"]
        for m in (1_000, 5_000, 10_000)
    ]
    assert speedups[0] >= speedups[1] >= speedups[2]
