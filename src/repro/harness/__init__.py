"""Declarative experiment harness: registry, result store, sweeps, CLI.

The harness is the platform layer the experiments plug into:

* :mod:`repro.harness.spec` — :class:`ExperimentSpec` and the global
  registry.  Experiment modules register themselves at import time; call
  :func:`load_builtin_specs` (implicit in :func:`get_spec`/:func:`all_specs`)
  to make sure the built-ins are present.
* :mod:`repro.harness.store` — content-addressed :class:`ResultStore`
  (``results/`` or ``REPRO_RESULTS_DIR``): the SHA-256 of spec + resolved
  params + pivoting + matmul addresses a JSON artifact, so repeated
  runs are cache hits with bit-identical rows.
* :mod:`repro.harness.sweep` — parameter-grid expansion and the concurrent
  sweep executor.
* :mod:`repro.harness.cli` — the ``python -m repro`` / ``repro`` command.
"""

from .spec import (
    ExperimentSpec,
    Rows,
    all_specs,
    get_spec,
    jsonify,
    jsonify_rows,
    load_builtin_specs,
    register,
    spec_names,
)
from .factor_cache import FactorCache, FactorFetch, factor_key, generate_matrix
from .serving import ServiceStats, SolveOutcome, SolveService
from .store import FetchResult, ResultStore, context_key, key_lock
from .sweep import SweepJob, SweepResult, expand_grid, run_sweep

__all__ = [
    "ExperimentSpec",
    "Rows",
    "all_specs",
    "get_spec",
    "jsonify",
    "jsonify_rows",
    "load_builtin_specs",
    "register",
    "spec_names",
    "FetchResult",
    "ResultStore",
    "context_key",
    "key_lock",
    "FactorCache",
    "FactorFetch",
    "factor_key",
    "generate_matrix",
    "SolveService",
    "SolveOutcome",
    "ServiceStats",
    "SweepJob",
    "SweepResult",
    "expand_grid",
    "run_sweep",
]
