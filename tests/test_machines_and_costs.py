"""Additional tests for machine models, cost ledgers and run traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costs import CostLedger
from repro.distsim import RankTrace, RunTrace, run_spmd
from repro.kernels import FlopCounter
from repro.machines import MachineModel, cray_xt4, ibm_power5, unit_machine


# ------------------------------------------------------------------ RankTrace
def test_rank_trace_records_sends_and_receives():
    t = RankTrace(rank=0)
    t.record_send(10.0, "col")
    t.record_send(5.0, "row")
    t.record_recv(7.0)
    assert t.messages_sent == 2
    assert t.words_sent == 15.0
    assert t.messages_by_channel == {"col": 1, "row": 1}
    assert t.messages_received == 1
    assert t.words_received == 7.0


def test_run_trace_aggregates():
    a = RankTrace(rank=0, clock=3.0)
    a.record_send(10.0, "col")
    a.flops = FlopCounter(muladds=100)
    b = RankTrace(rank=1, clock=5.0)
    b.record_send(2.0, "row")
    b.record_send(2.0, "row")
    trace = RunTrace(ranks=[a, b])
    assert trace.nprocs == 2
    assert trace.total_messages == 3
    assert trace.max_messages == 2
    assert trace.total_words == 14.0
    assert trace.max_words == 10.0
    assert trace.critical_path_time == 5.0
    assert trace.total_flops == 100
    assert trace.messages_by_channel("row") == 2
    assert trace.words_by_channel("col") == 10.0
    summary = trace.summary()
    assert summary["nprocs"] == 2 and summary["critical_path_time"] == 5.0


def test_empty_run_trace_defaults():
    trace = RunTrace(ranks=[])
    assert trace.max_messages == 0
    assert trace.critical_path_time == 0.0


# -------------------------------------------------------------- machine models
def test_machine_channel_fallbacks():
    m = MachineModel(name="m", gamma=1, gamma_d=1, alpha=3.0, beta=0.5)
    assert m.latency("row") == 3.0
    assert m.inv_bandwidth("col") == 0.5
    m2 = m.with_overrides(alpha_row=7.0, beta_col=0.25)
    assert m2.latency("row") == 7.0
    assert m2.inv_bandwidth("col") == 0.25
    assert m2.latency("col") == 3.0


def test_machine_flops_to_gflops_and_zero_time():
    m = ibm_power5()
    assert m.percent_of_peak(1e9, 0.0, 4) == 0.0


def test_power5_faster_network_than_xt4():
    """The POWER5's federation switch has lower latency and higher bandwidth."""
    p5, xt4 = ibm_power5(), cray_xt4()
    assert p5.alpha < xt4.alpha
    assert p5.beta < xt4.beta


def test_unit_machine_and_cluster_clock_behaviour():
    def prog(comm):
        comm.charge_flops(muladds=1000)
        return comm.clock

    unit_clock = run_spmd(1, prog, machine=unit_machine()).results[0]
    cluster_clock = run_spmd(1, prog, machine=ibm_power5()).results[0]
    assert unit_clock == 0.0
    assert cluster_clock > 0.0


# ----------------------------------------------------------------- CostLedger
def test_cost_ledger_totals_and_labels():
    ledger = CostLedger(muladds=4, divides=1, messages_col=2, messages_row=3,
                        messages_any=1, words_col=10, words_row=20, words_any=5,
                        label="phase")
    assert ledger.total_messages == 6
    assert ledger.total_words == 35
    assert ledger.total_flops == 5
    combined = ledger + CostLedger(label="")
    assert combined.label == "phase"


def test_cost_ledger_comparisons_field():
    """The γ_cmp term must flow through arithmetic, time and breakdown —
    while total_flops stays in FlopCounter.total's currency (no comparisons)."""
    ledger = CostLedger(muladds=4, divides=1, comparisons=10)
    assert ledger.total_flops == 5
    summed = ledger + CostLedger(comparisons=5)
    assert summed.comparisons == 15
    assert ledger.scaled(2.0).comparisons == 20
    machine = unit_machine().with_overrides(gamma=1.0, gamma_d=1.0, gamma_cmp=0.5,
                                            alpha=0.0)
    assert ledger.time(machine) == pytest.approx(4 + 1 + 10 * 0.5)
    bd = ledger.breakdown(machine)
    assert bd["arithmetic"] == pytest.approx(10.0)
    # With gamma_cmp unset, comparisons are priced at γ (the default).
    plain = machine.with_overrides(gamma_cmp=None)
    assert ledger.time(plain) == pytest.approx(4 + 1 + 10)


def test_panel_models_charge_comparisons():
    """The simulator charges pivot-search comparisons, so the analytic panel
    models must too — or validation drifts whenever gamma_cmp is set."""
    from repro.models import pdgetf2_cost, tslu_cost

    tslu = tslu_cost(m=1024, b=16, P=16)
    ref = pdgetf2_cost(m=1024, b=16, P=16)
    assert tslu.comparisons > 0
    assert ref.comparisons > 0
    free_cmp = unit_machine().with_overrides(gamma=1e-9, gamma_cmp=0.0, alpha=0.0)
    costly_cmp = free_cmp.with_overrides(gamma_cmp=1e-6)
    assert tslu.time(costly_cmp) > tslu.time(free_cmp)
    assert ref.time(costly_cmp) > ref.time(free_cmp)


def test_machine_rejects_negative_channel_overrides():
    """Hierarchical-machine overrides must be validated like the defaults."""
    base = dict(name="m", gamma=1e-9, gamma_d=1e-9, alpha=1e-6, beta=1e-9)
    for field_name in ("alpha_row", "beta_row", "alpha_col", "beta_col"):
        with pytest.raises(ValueError, match=field_name):
            MachineModel(**base, **{field_name: -1.0})
    # Valid overrides still construct.
    model = MachineModel(**base, alpha_row=2e-6, beta_col=0.0)
    assert model.latency("row") == pytest.approx(2e-6)
    assert model.inv_bandwidth("col") == 0.0


def test_cost_ledger_zero_is_neutral_element():
    zero = CostLedger()
    ledger = CostLedger(muladds=7, messages_col=2)
    combined = ledger + zero
    assert combined.muladds == 7 and combined.messages_col == 2
    assert zero.time(ibm_power5()) == 0.0


def test_charge_counter_resets_scratch():
    def prog(comm):
        scratch = FlopCounter(muladds=50, divides=2)
        comm.charge_counter(scratch)
        return scratch.total, comm.trace.flops.total

    trace = run_spmd(1, prog)
    scratch_total, charged = trace.results[0]
    assert scratch_total == 0
    assert charged == 52
