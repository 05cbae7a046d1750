"""Parallel sweep executor: expand parameter grids into cached jobs.

A sweep is a spec plus a grid — a mapping of parameter name to the sequence
of values to try.  The executor expands the grid into its cartesian product,
runs each combination through the content-addressed store (so repeated sweeps
are cache hits) on a thread pool, and reports progress as jobs finish.

Simulated experiments are deterministic and independent (the simulator
gives bit-identical traces regardless of wall-clock interleaving), so jobs
can run concurrently without affecting any reproduced number; the executor
records the peak number of jobs in flight so tests can assert that the
parallelism is real.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .spec import ExperimentSpec, Rows
from .store import FetchResult, ResultStore

#: Default worker count for sweeps (overridable per call).
DEFAULT_JOBS = 4

ProgressFn = Callable[["SweepJob"], None]


@dataclass
class SweepJob:
    """One grid point of a sweep, with its outcome once finished.

    ``overrides`` is the full parameter set handed to the store (fixed
    ``base`` overrides merged with this job's grid point); ``grid_point``
    keeps the grid axes alone, for progress lines and reports that only want
    what varies.
    """

    index: int
    total: int
    overrides: Dict[str, object]
    grid_point: Dict[str, object] = field(default_factory=dict)
    result: Optional[FetchResult] = None
    error: Optional[BaseException] = None
    elapsed_s: float = 0.0

    @property
    def cached(self) -> bool:
        return bool(self.result and self.result.cached)


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`."""

    spec: ExperimentSpec
    jobs: List[SweepJob] = field(default_factory=list)
    base: Dict[str, object] = field(default_factory=dict)
    max_in_flight: int = 0
    elapsed_s: float = 0.0

    @property
    def hits(self) -> int:
        return sum(1 for j in self.jobs if j.cached)

    @property
    def misses(self) -> int:
        return sum(1 for j in self.jobs if j.result and not j.cached)

    @property
    def errors(self) -> List[SweepJob]:
        return [j for j in self.jobs if j.error is not None]

    def rows(self, tag_params: bool = True) -> Rows:
        """All rows of all successful jobs, each tagged with its parameters.

        Both the fixed ``base`` overrides and the job's grid point are
        prepended under a ``param:`` prefix when they do not already appear
        as a row column, so sweep CSV/JSON output stays self-describing —
        a fixed ``--set`` override is part of every row's context just as
        much as a swept axis is — without clobbering experiment columns.
        """
        combined: Rows = []
        for job in self.jobs:
            if job.result is None:
                continue
            # base first, then the job's own overrides (which win on clashes
            # and already include base when the job came from run_sweep).
            params = {**self.base, **job.overrides}
            for row in job.result.rows:
                if tag_params:
                    tagged: Dict[str, object] = {}
                    for key, value in params.items():
                        if key not in row:
                            tagged[f"param:{key}"] = value
                    tagged.update(row)
                    combined.append(tagged)
                else:
                    combined.append(dict(row))
        return combined


def expand_grid(grid: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """Cartesian product of a parameter grid, in the grid's key order."""
    if not grid:
        return [{}]
    keys = list(grid)
    combos = []
    for values in itertools.product(*(grid[k] for k in keys)):
        combos.append(dict(zip(keys, values)))
    return combos


def run_sweep(
    spec: ExperimentSpec,
    grid: Mapping[str, Sequence[object]],
    base: Optional[Mapping[str, object]] = None,
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = None,
    quick: bool = False,
    force: bool = False,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Run the cartesian product of ``grid`` over ``spec`` concurrently.

    ``base`` holds fixed overrides applied to every grid point.  Each point
    goes through ``store.fetch_or_run`` so completed points are cache hits on
    re-sweeps.  ``progress`` (if given) is called once per finished job, from
    the worker thread, with the completed :class:`SweepJob`.
    """
    store = store or ResultStore()
    combos = expand_grid(grid)
    total = len(combos)
    sweep_jobs = [
        SweepJob(
            index=i,
            total=total,
            overrides={**(base or {}), **combo},
            grid_point=dict(combo),
        )
        for i, combo in enumerate(combos)
    ]

    lock = threading.Lock()
    in_flight = 0
    result = SweepResult(spec=spec, base=dict(base or {}))
    result.jobs = sweep_jobs

    def run_one(job: SweepJob) -> None:
        nonlocal in_flight
        with lock:
            in_flight += 1
            result.max_in_flight = max(result.max_in_flight, in_flight)
        start = time.perf_counter()
        try:
            job.result = store.fetch_or_run(
                spec,
                job.overrides,
                quick=quick,
                force=force,
                use_cache=use_cache,
            )
        except Exception as exc:  # surfaced via SweepResult.errors
            job.error = exc
        finally:
            job.elapsed_s = time.perf_counter() - start
            with lock:
                in_flight -= 1
        if progress is not None:
            progress(job)

    workers = max(1, jobs if jobs is not None else min(DEFAULT_JOBS, total))
    start = time.perf_counter()
    if workers == 1:
        for job in sweep_jobs:
            run_one(job)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_one, sweep_jobs))
    result.elapsed_s = time.perf_counter() - start
    return result
