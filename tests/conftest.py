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


@pytest.fixture
def host_merges(monkeypatch) -> list:
    """Operand pairs per host evaluation of a tournament merge.

    Every merge the host evaluates — a sequential reduction round or the
    distributed all-reduce operator, whichever engine runs the ranks — passes
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
