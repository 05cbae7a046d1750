"""The configuration subsystem: the two knob tables and SolveConfig.

One parametrized suite covers both knobs (pivoting, matmul) through their one
lookup each (``get_strategy`` / ``get_backend``) and through
``SolveConfig.resolve``, at both levels of the rule —

    explicit value > default

— and the shared :class:`UnknownOptionError` naming the offending value and
the available choices.  Nothing is read from process state: there is no
ambient override and no knob environment variable.

The :class:`SolveConfig` half covers resolution, grid normalization, the
one-legal-value ``engine`` and ``kernel_tier`` keywords, ``replace``
validation and the machine-model lookup.
"""

from __future__ import annotations

import pytest

from repro.core.options import KNOBS, SolveConfig, UnknownOptionError, normalize_grid
from repro.core.strategies import get_strategy
from repro.matmul import get_backend

#: (knob, default, a valid explicit value, bad).
KNOB_CASES = [
    ("pivoting", "ca", "pp", "rook"),
    ("matmul", "summa", "caps", "cannon"),
]

KNOB_IDS = [case[0] for case in KNOB_CASES]

#: Each knob's one lookup: name (``None``: the default) -> table entry.
LOOKUPS = {"pivoting": get_strategy, "matmul": get_backend}


# ------------------------------------------------------------------ registry
def test_all_knobs_are_registered():
    assert KNOBS == ("pivoting", "matmul")  # neither engine nor kernel tier is a knob
    assert set(KNOBS) == set(LOOKUPS)
    for name, default, *_ in KNOB_CASES:
        assert LOOKUPS[name]().name == default


# -------------------------------------------------- the two precedence levels
@pytest.mark.parametrize("name,default,value,bad", KNOB_CASES, ids=KNOB_IDS)
class TestPrecedence:
    def test_default_when_nothing_is_set(self, name, default, value, bad):
        lookup = LOOKUPS[name]
        assert lookup().name == default
        assert lookup(None) is lookup(default)
        assert getattr(SolveConfig.resolve(), name) == default

    def test_explicit_beats_default(self, name, default, value, bad):
        assert LOOKUPS[name](value).name == value
        assert getattr(SolveConfig.resolve(**{name: value}), name) == value

    def test_invalid_explicit_value_names_offender(self, name, default, value, bad):
        for resolve in (LOOKUPS[name],
                        lambda v: SolveConfig.resolve(**{name: v}),
                        lambda v: SolveConfig.resolve().replace(**{name: v})):
            with pytest.raises(UnknownOptionError) as excinfo:
                resolve(bad)
            assert excinfo.value.name == bad
            assert repr(bad) in str(excinfo.value)
            assert default in excinfo.value.available


# ---------------------------------------------------------------- SolveConfig
def test_solveconfig_resolve_uses_shared_precedence():
    config = SolveConfig.resolve(engine="coroutine", matmul="caps", grid=4, b=8, nrhs=3)
    assert config.matmul == "caps"  # explicit
    assert config.pivoting == "ca"  # default
    assert config.grid == (2, 2) and config.P == 4
    assert config.b == 8
    # nrhs is accepted and ignored: the right-hand sides carry their count.
    assert config == SolveConfig.resolve(matmul="caps", grid=4, b=8)


@pytest.mark.parametrize("tier", ["reference", "lapack", "nope"])
def test_solveconfig_resolve_rejects_every_kernel_tier_but_auto(tier):
    """``kernel_tier`` is accepted and ignored as ``None`` or ``"auto"`` only."""
    assert SolveConfig.resolve(kernel_tier="auto") == SolveConfig.resolve()
    assert not hasattr(SolveConfig.resolve(kernel_tier=None), "kernel_tier")
    with pytest.raises(UnknownOptionError) as excinfo:
        SolveConfig.resolve(kernel_tier=tier)
    assert excinfo.value.name == tier and excinfo.value.available == ["auto"]


@pytest.mark.parametrize("engine", ["event", "warp", "Coroutine"])
def test_solveconfig_resolve_rejects_every_engine_but_coroutine(engine):
    """``engine`` is accepted and ignored as ``None`` or ``"coroutine"`` only."""
    assert SolveConfig.resolve(engine="coroutine") == SolveConfig.resolve()
    assert not hasattr(SolveConfig.resolve(), "engine")
    with pytest.raises(UnknownOptionError) as excinfo:
        SolveConfig.resolve(engine=engine)
    assert excinfo.value.name == engine and excinfo.value.available == ["coroutine"]


def test_solveconfig_replace_validates_knobs_and_normalizes_grid():
    config = SolveConfig.resolve()
    tuned = config.replace(matmul="caps", grid=8, b=32)
    assert tuned.matmul == "caps" and tuned.grid == (2, 4) and tuned.b == 32
    assert config.matmul == "summa"  # frozen original untouched
    with pytest.raises(UnknownOptionError):
        config.replace(pivoting="rook")


def test_solveconfig_replace_none_knob_takes_the_default():
    """``None`` means the default in ``replace`` as in ``resolve``, never a
    config whose knob is ``None``."""
    assert SolveConfig.resolve(pivoting="pp").replace(
        pivoting=None, matmul=None
    ) == SolveConfig.resolve()


def test_solveconfig_machine_model_lookup():
    assert SolveConfig.resolve().machine_model() is None
    model = SolveConfig.resolve(machine="ibm_power5").machine_model()
    assert model is not None and model.gamma > 0.0
    with pytest.raises(UnknownOptionError) as excinfo:
        SolveConfig.resolve(machine="cray_t3e").machine_model()
    assert excinfo.value.name == "cray_t3e"
    assert "ibm_power5" in excinfo.value.available


def test_normalize_grid_forms():
    from repro.layouts.grid import ProcessGrid

    assert normalize_grid(None) is None
    assert normalize_grid(6) == (2, 3)
    assert normalize_grid((4, 2)) == (4, 2)
    assert normalize_grid([3, 5]) == (3, 5)
    assert normalize_grid(ProcessGrid(2, 8)) == (2, 8)
