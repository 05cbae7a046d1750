"""The shared configuration subsystem: Option precedence and SolveConfig.

One parametrized suite covers every registered knob (pivoting, engine,
kernel_tier, matmul) at both levels of the shared precedence rule —

    explicit value > default

— and the shared :class:`UnknownOptionError` naming the offending value and
the available choices.  Nothing is read from process state: there is no
ambient override and no knob environment variable.

The :class:`SolveConfig` half covers resolution, field normalization
(grid/engine instances), ``replace`` validation and the machine-model lookup.
"""

from __future__ import annotations

import pytest

import repro.core.strategies  # noqa: F401  (registers the four knobs)
import repro.distsim.engine  # noqa: F401
import repro.kernels.tiers  # noqa: F401
import repro.matmul  # noqa: F401
from repro.core.options import (
    KNOBS,
    OPTIONS,
    SolveConfig,
    UnknownOptionError,
    normalize_grid,
)

#: (knob, default, a valid explicit value, bad).  The engine has one legal
#: value, so its explicit value is the default and ``event`` is bad.
KNOB_CASES = [
    ("pivoting", "ca", "pp", "rook"),
    ("engine", "coroutine", "coroutine", "event"),
    ("kernel_tier", "auto", "reference", "nope"),
    ("matmul", "summa", "caps", "cannon"),
]

KNOB_IDS = [case[0] for case in KNOB_CASES]


# ------------------------------------------------------------------ registry
def test_all_four_knobs_are_registered():
    assert set(KNOBS) <= set(OPTIONS)
    for name, default, *_ in KNOB_CASES:
        option = OPTIONS[name]
        assert option.name == name
        assert option.default == default


# -------------------------------------------------- the two precedence levels
@pytest.mark.parametrize("name,default,value,bad", KNOB_CASES, ids=KNOB_IDS)
class TestPrecedence:
    def test_default_when_nothing_is_set(self, name, default, value, bad):
        option = OPTIONS[name]
        assert option.resolve() == default
        assert option.resolve(None) == default
        assert getattr(SolveConfig.resolve(), name) == default

    def test_explicit_beats_default(self, name, default, value, bad):
        assert OPTIONS[name].resolve(value) == value
        assert getattr(SolveConfig.resolve(**{name: value}), name) == value

    def test_invalid_explicit_value_names_offender(self, name, default, value, bad):
        for resolve in (OPTIONS[name].resolve,
                        lambda v: SolveConfig.resolve(**{name: v})):
            with pytest.raises(UnknownOptionError) as excinfo:
                resolve(bad)
            assert excinfo.value.name == bad
            assert repr(bad) in str(excinfo.value)
            assert default in excinfo.value.available


# ---------------------------------------------------------------- SolveConfig
def test_solveconfig_resolve_uses_shared_precedence():
    config = SolveConfig.resolve(engine="coroutine", matmul="caps", grid=4, b=8, nrhs=3)
    assert config.engine == "coroutine" and config.matmul == "caps"  # explicit
    assert config.pivoting == "ca" and config.kernel_tier == "auto"  # default
    assert config.grid == (2, 2) and config.P == 4
    assert config.b == 8 and config.nrhs == 3


def test_solveconfig_resolve_accepts_engine_instances():
    from repro.distsim.engine import get_engine

    config = SolveConfig.resolve(engine=get_engine("coroutine"))
    assert config.engine == "coroutine"
    for bad in ("event", "warp"):
        with pytest.raises(UnknownOptionError):
            SolveConfig.resolve(engine=bad)


def test_solveconfig_replace_validates_knobs_and_normalizes_grid():
    config = SolveConfig.resolve()
    tuned = config.replace(matmul="caps", grid=8, b=32)
    assert tuned.matmul == "caps" and tuned.grid == (2, 4) and tuned.b == 32
    assert config.matmul == "summa"  # frozen original untouched
    with pytest.raises(UnknownOptionError):
        config.replace(pivoting="rook")


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


def test_solveconfig_describe_and_as_dict_round_trip():
    config = SolveConfig.resolve(grid=(2, 4), b=16, nrhs=2, machine="cray_xt4")
    text = config.describe()
    assert "grid=2x4" in text and "b=16" in text and "machine=cray_xt4" in text
    as_dict = config.as_dict()
    assert as_dict["grid"] == [2, 4]
    assert SolveConfig(**{**as_dict, "grid": tuple(as_dict["grid"])}) == config
