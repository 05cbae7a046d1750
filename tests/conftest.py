"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_square(rng) -> np.ndarray:
    """A well-conditioned 32 x 32 random matrix."""
    return rng.standard_normal((32, 32))


@pytest.fixture
def tall_panel(rng) -> np.ndarray:
    """A 48 x 6 tall-skinny panel."""
    return rng.standard_normal((48, 6))


@pytest.fixture(params=["coroutine"])
def scheduler(request) -> str:
    """The name of the one scheduler every SPMD run goes through.

    A one-value parameter that no code reads: the SPMD tests that once ran
    per engine take it (or ``parametrize("scheduler", ["coroutine"])`` where
    their ids put it last), so their ids (``[coroutine-…]``) are unchanged.
    """
    return request.param


@pytest.fixture
def host_merges(monkeypatch) -> list:
    """Operand pairs per host evaluation of a tournament merge.

    Every merge the host evaluates — a sequential reduction round or the
    distributed all-reduce operator of an SPMD run — passes
    through ``core.tournament.merge_pairs``; the list grows by one entry (the
    number of pairs) per call.
    """
    from repro.core import tournament

    original = tournament.merge_pairs
    counted: list = []

    def counting(pairs, *args):
        counted.append(len(pairs))
        return original(pairs, *args)

    monkeypatch.setattr(tournament, "merge_pairs", counting)
    return counted


@pytest.fixture
def layout_calls(monkeypatch) -> dict:
    """Calls of ``BlockCyclic2D.scatter`` and ``.gather``, the two conversions
    between a global matrix and its block-cyclic pieces."""
    from repro.layouts.block_cyclic import BlockCyclic2D

    calls = {"scatter": 0, "gather": 0}
    for name in calls:
        original = getattr(BlockCyclic2D, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(BlockCyclic2D, name, counting)
    return calls


def _reference_select(block, nselect, flops=None, tau=None):
    """``select_rows_rrqr`` with its ``dgeqp3`` path switched off, so every
    selection runs the reference strong-RRQR loop (``_strong_rrqr``)."""
    import importlib
    from unittest import mock

    from repro.kernels import DEFAULT_TAU, select_rows_rrqr

    rrqr_module = importlib.import_module("repro.kernels.rrqr")
    with mock.patch.object(rrqr_module, "_lapack_pivots", lambda *a: None):
        return select_rows_rrqr(
            block, nselect, tau=DEFAULT_TAU if tau is None else tau, flops=flops
        )


@pytest.fixture(scope="session")
def reference_select():
    """The strong-RRQR row selection on the reference kernel alone."""
    return _reference_select


def _reference_leaves(blocks, b, selector="getf2", local_kernel="getf2"):
    """``leaf_candidates`` on the reference kernel bodies, one block at a time."""
    from repro.core.tournament import CandidateSet
    from repro.kernels import FlopCounter, getf2, rgetf2

    out = []
    for rows, blk in blocks:
        rows, blk = np.asarray(rows, dtype=np.int64), np.asarray(blk, dtype=np.float64)
        flops, k = FlopCounter(), min(b, blk.shape[0])
        if selector == "rrqr":
            chosen = _reference_select(blk, k, flops=flops)
        else:
            tall = local_kernel == "rgetf2" and blk.shape[0] >= blk.shape[1]
            kernel = rgetf2 if tall else getf2
            chosen = kernel(blk, flops=flops, reference=True).perm[:k]
        out.append((CandidateSet(rows=rows[chosen], block=blk[chosen, :]), flops))
    return out


@pytest.fixture(scope="session")
def reference_leaves():
    """A stand-in for ``core.tournament.leaf_candidates`` that factors every
    leaf on the reference kernel bodies (no ``dgetrf``, ``getf2_batched`` or
    ``dgeqp3``); patch it in to run a tournament's leaves on the reference."""
    return _reference_leaves


def _oracle_tournament(blocks, b, schedule, selector, local_kernel):
    """The tournament as Section 2 states it: every logical merge executed, one
    at a time, through the per-node functions, on the reference kernel bodies,
    one ledger.  Returns what ``tournament_pivoting`` must reproduce bit for
    bit: ``(winner rows, U, rounds, flops)``."""
    from repro.core import merge_candidates
    from repro.core.tournament import CandidateSet
    from repro.kernels import FlopCounter, getf2

    flops = FlopCounter()

    def merge_rrqr(x, y):
        stacked = np.vstack([x.block, y.block])
        rows = np.concatenate([x.rows, y.rows])
        chosen = _reference_select(stacked, min(b, stacked.shape[0]), flops=flops)
        return CandidateSet(rows=rows[chosen], block=stacked[chosen, :]), None

    merge = merge_rrqr if selector == "rrqr" else (
        lambda x, y: merge_candidates(x, y, b, flops))
    leaves = _reference_leaves(blocks, b, selector, local_kernel)
    for _, counter in leaves:
        flops.merge(counter)
    level = [c for c, _ in leaves if c.rows.shape[0]]
    U, rounds = None, 0
    if schedule == "flat":
        for nxt in level[1:]:
            (level[0], U), rounds = merge(level[0], nxt), rounds + 1
    elif schedule == "binary":
        while len(level) > 1:
            merged = [merge(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
            U, rounds = merged[-1][1], rounds + 1
            level = [w for w, _ in merged] + level[len(merged) * 2:]
    elif len(level) > 1:
        pow2 = 1 << (len(level) - 1).bit_length()
        level += [level[-1]] * (pow2 - len(level))
        for k in (1 << s for s in range(pow2.bit_length() - 1)):
            merged = [merge(level[min(i, i ^ k)], level[max(i, i ^ k)]) for i in range(pow2)]
            U, rounds = merged[-1][1], rounds + 1
            level = [w for w, _ in merged]
    rows = level[0].rows
    if U is None:  # no root LU: rrqr, or a single block
        res = getf2(level[0].block, flops=flops, reference=True)
        rows, U = rows[res.perm], np.triu(res.lu)
    return rows, U[: rows.shape[0]], rounds, flops


@pytest.fixture(scope="session")
def tournament_oracle():
    """The one-merge-at-a-time reference tournament (see ``_oracle_tournament``)."""
    return _oracle_tournament
