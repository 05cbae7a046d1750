"""The shared configuration subsystem: Option precedence and SolveConfig.

One parametrized suite covers every registered knob (pivoting, engine,
kernel_tier, matmul) at every level of the shared precedence rule —

    explicit per-call argument > ambient context > ``REPRO_*`` env > default

— plus nested context managers, multi-knob ``option_overrides``, and the
shared :class:`UnknownOptionError` naming the offending value and the
available choices.  This replaces the per-knob ad-hoc precedence tests the
four subsystems used to carry.

The :class:`SolveConfig` half covers resolution, field normalization
(grid/engine instances), ``replace`` validation, the machine-model lookup,
and the ambient context manager.
"""

from __future__ import annotations

import pytest

from repro.core.options import (
    KNOBS,
    OPTIONS,
    SolveConfig,
    UnknownOptionError,
    get_option,
    normalize_grid,
    option_overrides,
)

#: (knob, env var, default, two distinct non-default-ish valid values, bad).
#: ``value_a != value_b`` so layered overrides are observable; both differ
#: from whatever the level below would resolve to in each test.
KNOB_CASES = [
    ("pivoting", "REPRO_PIVOTING", "ca", "pp", "ca_prrp", "rook"),
    ("engine", "REPRO_VMPI_ENGINE", "coroutine", "event", "coroutine", "warp"),
    ("kernel_tier", "REPRO_KERNEL_TIER", "auto", "reference", "lapack", "nope"),
    ("matmul", "REPRO_MATMUL", "summa", "caps", "summa", "cannon"),
]

KNOB_IDS = [case[0] for case in KNOB_CASES]


@pytest.fixture(autouse=True)
def clean_knobs(monkeypatch):
    """Every test starts from defaults: no env vars, no ambient overrides."""
    for name, env_var, *_ in KNOB_CASES:
        monkeypatch.delenv(env_var, raising=False)
        option = get_option(name)
        monkeypatch.setattr(option, "_ambient", None)
    yield


# ------------------------------------------------------------------ registry
def test_all_four_knobs_are_registered():
    assert set(KNOBS) <= set(OPTIONS)
    for name, env_var, default, *_ in KNOB_CASES:
        option = get_option(name)
        assert option.name == name
        assert option.env_var == env_var
        assert option.default == default


def test_get_option_unknown_knob_names_offender():
    with pytest.raises(UnknownOptionError) as excinfo:
        get_option("blocksize")
    assert excinfo.value.name == "blocksize"
    assert "blocksize" in str(excinfo.value)
    assert set(KNOBS) <= set(excinfo.value.available)


# ------------------------------------------------ the four precedence levels
@pytest.mark.parametrize(
    "name,env_var,default,value_a,value_b,bad", KNOB_CASES, ids=KNOB_IDS
)
class TestPrecedence:
    def test_default_when_nothing_is_set(
        self, name, env_var, default, value_a, value_b, bad
    ):
        option = get_option(name)
        assert option.get() == default
        assert option.resolve() == default
        assert option.resolve(None) == default

    def test_env_beats_default(
        self, name, env_var, default, value_a, value_b, bad, monkeypatch
    ):
        monkeypatch.setenv(env_var, value_a)
        assert get_option(name).resolve() == value_a

    def test_empty_env_is_ignored(
        self, name, env_var, default, value_a, value_b, bad, monkeypatch
    ):
        monkeypatch.setenv(env_var, "")
        assert get_option(name).resolve() == default

    def test_ambient_beats_env(
        self, name, env_var, default, value_a, value_b, bad, monkeypatch
    ):
        monkeypatch.setenv(env_var, value_a)
        option = get_option(name)
        option.set(value_b)
        assert option.resolve() == value_b
        option.set(None)  # clearing re-exposes the environment
        assert option.resolve() == value_a

    def test_explicit_beats_ambient_and_env(
        self, name, env_var, default, value_a, value_b, bad, monkeypatch
    ):
        monkeypatch.setenv(env_var, default)
        option = get_option(name)
        option.set(value_b)
        assert option.resolve(value_a) == value_a

    def test_context_manager_nests_and_restores(
        self, name, env_var, default, value_a, value_b, bad
    ):
        option = get_option(name)
        with option.context(value_a):
            assert option.get() == value_a
            with option.context(value_b):
                assert option.get() == value_b
            assert option.get() == value_a
        assert option.get() == default

    def test_invalid_explicit_value_names_offender(
        self, name, env_var, default, value_a, value_b, bad
    ):
        option = get_option(name)
        with pytest.raises(UnknownOptionError) as excinfo:
            option.resolve(bad)
        assert excinfo.value.name == bad
        assert repr(bad) in str(excinfo.value)

    def test_invalid_ambient_value_rejected_without_sticking(
        self, name, env_var, default, value_a, value_b, bad
    ):
        option = get_option(name)
        with pytest.raises(UnknownOptionError):
            option.set(bad)
        assert option.get() == default

    def test_invalid_env_value_raises_on_resolution(
        self, name, env_var, default, value_a, value_b, bad, monkeypatch
    ):
        monkeypatch.setenv(env_var, bad)
        with pytest.raises(UnknownOptionError):
            get_option(name).resolve()


# ----------------------------------------------------------- multi-knob scope
def test_option_overrides_scopes_several_knobs():
    with option_overrides(pivoting="pp", matmul="caps", engine=None):
        assert get_option("pivoting").get() == "pp"
        assert get_option("matmul").get() == "caps"
        assert get_option("engine").get() == "coroutine"  # None skipped
    assert get_option("pivoting").get() == "ca"
    assert get_option("matmul").get() == "summa"


def test_option_overrides_invalid_value_applies_nothing():
    with pytest.raises(UnknownOptionError):
        with option_overrides(pivoting="pp", engine="warp"):
            pass  # pragma: no cover - never entered
    assert get_option("pivoting").get() == "ca"


# ---------------------------------------------------------------- SolveConfig
def test_solveconfig_resolve_uses_shared_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_PIVOTING", "ca_prrp")
    with option_overrides(matmul="caps"):
        config = SolveConfig.resolve(engine="event", grid=4, b=8, nrhs=3)
    assert config.pivoting == "ca_prrp"  # from env
    assert config.matmul == "caps"  # from ambient
    assert config.engine == "event"  # explicit
    assert config.kernel_tier == "auto"  # default
    assert config.grid == (2, 2) and config.P == 4
    assert config.b == 8 and config.nrhs == 3


def test_solveconfig_resolve_accepts_engine_instances():
    from repro.distsim.engine import get_engine

    config = SolveConfig.resolve(engine=get_engine("coroutine"))
    assert config.engine == "coroutine"


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


def test_solveconfig_ambient_applies_all_four_knobs():
    config = SolveConfig.resolve(
        pivoting="pp", engine="event", kernel_tier="reference", matmul="caps"
    )
    with config.ambient():
        assert SolveConfig.resolve() == config.replace(grid=None)
    assert SolveConfig.resolve().pivoting == "ca"


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
