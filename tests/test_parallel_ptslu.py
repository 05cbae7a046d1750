"""Tests for the distributed TSLU (SPMD on the virtual MPI)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import tslu
from repro.distsim import available_engines
from repro.machines import ibm_power5, unit_machine
from repro.parallel import ptslu
from repro.randmat import figure1_matrix, tall_skinny


@pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
@pytest.mark.parametrize("layout", ["block", "block_cyclic"])
def test_ptslu_factorization_correct(nprocs, layout):
    A = tall_skinny(64, 8, seed=nprocs)
    res = ptslu(A, nprocs=nprocs, layout=layout)
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-10)
    assert np.array_equal(np.sort(res.perm), np.arange(64))


@pytest.mark.parametrize("nprocs", [2, 4, 8])
def test_ptslu_message_count_is_log2P_per_rank(nprocs):
    """The headline claim: TSLU needs only log2(P) messages per process."""
    A = tall_skinny(64, 4, seed=3)
    res = ptslu(A, nprocs=nprocs, machine=unit_machine())
    assert res.trace.max_messages == math.log2(nprocs)


def test_ptslu_matches_sequential_tslu_winners():
    A = tall_skinny(64, 8, seed=5)
    par = ptslu(A, nprocs=4, layout="block")
    seq = tslu(A, nblocks=4, partition="contiguous")
    assert np.array_equal(np.sort(par.winners), np.sort(seq.winners))


def test_ptslu_figure1_example():
    A = figure1_matrix()
    res = ptslu(A, nprocs=4, layout="block_cyclic", block_size=2)
    assert sorted(res.winners.tolist()) == [5, 10]


@pytest.mark.parametrize("local_kernel", ["getf2", "rgetf2"])
def test_ptslu_local_kernels_agree(local_kernel):
    A = tall_skinny(48, 6, seed=7)
    res = ptslu(A, nprocs=4, local_kernel=local_kernel)
    ref = ptslu(A, nprocs=4, local_kernel="getf2")
    assert np.array_equal(res.winners, ref.winners)


def test_ptslu_words_per_rank_scale_with_b_squared():
    b = 8
    A = tall_skinny(128, b, seed=9)
    res = ptslu(A, nprocs=4, machine=unit_machine())
    # log2(4) = 2 messages of ~ (b^2 + b) words each.
    expected = 2 * (b * b + b)
    assert res.trace.max_words == pytest.approx(expected, rel=0.2)


def test_ptslu_simulated_time_under_real_machine_is_positive():
    A = tall_skinny(256, 16, seed=11)
    res = ptslu(A, nprocs=8, machine=ibm_power5())
    assert res.trace.critical_path_time > 0.0
    assert res.trace.total_flops > 0.0


# ------------------------------------------- host work of the redundant merges
@pytest.mark.parametrize("pivoting", ["ca", "ca_prrp"])
@pytest.mark.parametrize("nprocs", [2, 3, 5, 8, 12, 16])
def test_ptslu_coroutine_engine_evaluates_each_distinct_merge_once(
    host_merges, nprocs, pivoting
):
    """The butterfly's ranks apply P log2 P merges (plus the fold), only
    P - 1 of which are distinct: the group-level evaluation computes those
    and charges each rank every application it performs (the per-rank counts
    are stated in closed form in ``test_collectives_closed_form.py``)."""
    A = tall_skinny(8 * nprocs + 3, 4, seed=nprocs)
    res = ptslu(A, nprocs, machine=ibm_power5(), engine="coroutine", pivoting=pivoting)
    assert sum(host_merges) == nprocs - 1
    pow2 = 1 << (nprocs.bit_length() - 1)
    assert [r.messages_sent for r in res.trace.ranks] == [
        int(math.log2(pow2)) + (pos < nprocs - pow2) if pos < pow2 else 1
        for pos in range(nprocs)
    ]
    assert np.allclose(A[res.perm, :], res.L @ res.U, atol=1e-12)


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("selector", ["getf2", "rrqr"])
def test_ptslu_shared_tournament_results_are_read_only(engine, selector):
    """The deduplicated merges hand one (rows, block) pair and one packed
    winner factor to every rank of a block: an in-place edit by one rank must
    raise rather than corrupt what the other ranks hold."""
    from repro.distsim import RankFailedError, allreduce, run_spmd
    from repro.parallel.ptslu import _TournamentOp

    b, nprocs = 4, 4
    A = tall_skinny(8 * nprocs, b, seed=2)

    def tournament(comm, vandal):
        rows = np.arange(8 * comm.rank, 8 * (comm.rank + 1))
        op = _TournamentOp(comm, b, selector)
        (value, _), = op.combine([((rows[:b], A[rows[:b]]), (rows[b:], A[rows[b:]]))])
        winners, packed = yield from allreduce(comm, value, op, tag="t")
        if comm.rank == vandal:
            packed[0, 0] = 0.0
        return winners, packed, value

    trace = run_spmd(nprocs, tournament, None, engine=engine)
    for winners, packed, value in trace.results:
        assert not winners.flags.writeable and not packed.flags.writeable
        assert not value[0].flags.writeable and not value[1].flags.writeable
    # One object, not four equal ones.
    assert len({id(packed) for _, packed, _ in trace.results}) == 1

    with pytest.raises(RankFailedError) as err:
        run_spmd(nprocs, tournament, 2, engine=engine)
    assert list(err.value.failures) == [2]
    assert "read-only" in str(err.value.failures[2])
