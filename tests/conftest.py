"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import importlib

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
    """Operand pairs per host evaluation of the distributed tournament merge.

    Every merge ``ptslu``/``pcalu`` evaluates on the host, whichever engine
    runs the ranks, passes through ``parallel.ptslu._merge_pairs``; the list
    grows by one entry (the number of pairs) per call.
    """
    # ``repro.parallel.ptslu`` the attribute is the driver function.
    module = importlib.import_module("repro.parallel.ptslu")
    original = module._merge_pairs
    counted: list = []

    def counting(pairs, *args):
        counted.append(len(pairs))
        return original(pairs, *args)

    monkeypatch.setattr(module, "_merge_pairs", counting)
    return counted
