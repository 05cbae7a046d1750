#!/usr/bin/env python3
"""Bit-identity digest: one SHA-256 line per configuration, diffable across commits.

A refactor that claims "same bits" proves it by running this script twice —
once with ``--src`` at a ``git clone`` of the parent, once at the change — and
diffing the two outputs (the script pins BLAS to one thread)::

    python benchmarks/digest.py --src /path/to/parent/src > parent.txt
    python benchmarks/digest.py > change.txt && diff parent.txt change.txt

Simulated lines (``ptslu`` / ``pdgetrf`` / ``pcalu`` / ``pdgesv`` / ``pdgemm``,
all on the one scheduler) carry two hashes.  The factorization drivers are called only as ``pcalu(A, config=...)`` and
``pdgesv(A, B, config=...)``; a ``pdgetrf`` line is ``pcalu`` with
``pivoting="pp"``.  The two hashes are:

* the *simulated* hash — every simulated ``RankTrace`` field of every rank
  (messages and words sent and received, per-channel counts, muladds,
  divides, comparisons, clock, ``zero_copy_sends``) plus the outputs as raw
  bytes (ptslu: ``L``, ``U``, ``perm``, ``winners``; pdgetrf / pcalu: ``L``,
  ``U``, ``perm``, ``swaps``; pdgesv: ``x``, residual, per-RHS and
  backward-error histories, iterations, ``L``, ``U``, ``perm``, factor and
  solve traces; pdgemm: ``C``);
* the *engine* hash — the scheduler's own bookkeeping (``group_collectives``
  per rank).

The raw hashes depend on the platform's BLAS, so they are compared only
between two runs on one machine.  ``--quick`` runs a small sub-matrix; CI
runs it as a smoke test (it must exit 0 and no line may read ``raised``).

Sequential lines (``tslu`` / ``calu``: no simulator, no engine) hash ``L``,
``U``, ``perm`` and the flop ledger over pivoting x schedule x partition x
ragged shapes, on ``randn`` and exact-tie (``+-1``) panels.  ``calu ...
record`` lines run the same ``calu`` grid with ``track_growth=True,
compute_thresholds=True`` — the recording runs, which keep the kernels'
reference loops — and hash ``packed``, ``perm``, the growth and threshold
histories and the flop ledger.  ``key`` lines pin the default-config store
and factor keys, and the store key ``ResultStore.run_config`` gives every
registered spec at its defaults and under ``quick``.  ``rows`` lines hash
``json.dumps(spec.run(quick=...))`` of every registered spec: both settings
in the full matrix, the ``quick`` rows under ``--quick`` (the full rows take
about 20 s, most of it ``figure2`` and ``table2``).

Matrix (full): ptslu P in 1,2,3,5,6,8,13,16 x ca/pp/ca_prrp x
block/block-cyclic (m = 8P+5, b = 8); pdgetrf, pcalu, pdgesv on 2x2, 4x2, 3x5,
1x4, 4x1, 4x4 x n in 40,53 (b = 7, ragged) x ca/pp/ca_prrp x summa/caps
(ibm_power5, nrhs = 2); pdgemm on five grids x summa/caps x two shapes; tslu
on 64x8, 53x7 x P in 1,3,4,8 and calu (plain and record) on n in 40,53
(b = 7) x P in 2,4, each x ca/pp/ca_prrp x binary/flat/butterfly x
contiguous/block-cyclic.  742 lines.

The script runs unchanged against trees from before the kernel tier and the
engine stopped being knobs (``--src``): drivers are called without either
(their defaults were ``auto`` and ``coroutine``), and the two literal key
lines pass what the old key functions took as arguments — the ``"lapack"``
tier and the ``"coroutine"`` engine every default key recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import itertools
import json
import os
import struct
import sys
from functools import partial
from pathlib import Path

PIVOTINGS = ("ca", "pp", "ca_prrp")
MATMULS = ("summa", "caps")


def feed(h, obj) -> None:
    """Hash ``obj`` structurally: arrays as dtype + shape + raw bytes."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (bool, int, np.integer, str)) or obj is None:
        h.update(f"S{obj!r};".encode())
    elif isinstance(obj, dict):
        h.update(f"D{len(obj)};".encode())
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)};".encode())
        for item in obj:
            feed(h, item)
    elif hasattr(obj, "muladds"):  # FlopCounter
        feed(h, (obj.muladds, obj.divides, obj.comparisons))
    else:
        raise TypeError(f"digest: cannot hash {type(obj).__name__}")


def sha(*objs) -> str:
    h = hashlib.sha256()
    feed(h, objs)
    return h.hexdigest()


def trace_fields(trace):
    """``(simulated quantities, engine bookkeeping)`` of a RunTrace."""
    simulated = [
        (
            r.rank, r.messages_sent, r.messages_received, r.words_sent,
            r.words_received, r.messages_by_channel, r.words_by_channel,
            r.flops, r.clock, r.zero_copy_sends,
        )
        for r in trace.ranks
    ]
    return simulated, [r.group_collectives for r in trace.ranks]


def simulated_lines(quick: bool):
    """Yield ``(config, callable -> (simulated objects, engine objects))``."""
    from repro.core.options import SolveConfig
    from repro.layouts.grid import ProcessGrid
    from repro.machines import ibm_power5
    from repro.matmul import pdgemm
    from repro.parallel import pcalu, pdgesv, ptslu
    from repro.randmat import randn, tall_skinny

    def lu_outputs(res):
        return [res.L, res.U, res.perm, [list(s) for s in res.swaps]]

    def config(grid, **knobs):
        return SolveConfig.resolve(grid=grid, b=7, machine="ibm_power5", **knobs)

    def run_ptslu(P, piv, layout):
        res = ptslu(tall_skinny(8 * P + 5, 8, seed=P), P, layout=layout,
                    machine=ibm_power5(), pivoting=piv)
        sim, eng = trace_fields(res.trace)
        return [res.L, res.U, res.perm, res.winners, sim], eng

    def run_pcalu(grid, n, **knobs):
        res = pcalu(randn(n, seed=n), config=config(grid, **knobs))
        sim, eng = trace_fields(res.trace)
        return lu_outputs(res) + [sim], eng

    def run_pdgesv(grid, n, **knobs):
        res = pdgesv(randn(n, seed=n), randn(n, 2, seed=n + 1), config=config(grid, **knobs))
        fsim, feng = trace_fields(res.factorization.trace)
        ssim, seng = trace_fields(res.trace)
        return [res.x, res.residual_norms, res.per_rhs_residuals, res.backward_errors,
                res.iterations, lu_outputs(res.factorization), fsim, ssim], [feng, seng]

    def run_pdgemm(grid, shape, mm):
        m, k, n = shape
        res = pdgemm(randn(m, k, seed=1), randn(k, n, seed=2), grid=ProcessGrid(*grid),
                     block_size=7, matmul=mm, machine=ibm_power5())
        sim, eng = trace_fields(res.trace)
        return [res.C, sim], eng

    procs = (3, 8) if quick else (1, 2, 3, 5, 6, 8, 13, 16)
    grids = ((2, 2), (3, 5)) if quick else ((2, 2), (4, 2), (3, 5), (1, 4), (4, 1), (4, 4))
    sizes = (53,) if quick else (40, 53)
    for P, piv, layout in itertools.product(procs, PIVOTINGS, ("block", "block_cyclic")):
        yield f"ptslu P={P} {piv} {layout}", partial(run_ptslu, P, piv, layout)
    for grid, n in itertools.product(grids, sizes):
        where = f"{grid[0]}x{grid[1]} n={n} b=7"
        for mm in MATMULS:
            yield (f"pdgetrf {where} {mm}",
                   partial(run_pcalu, grid, n, pivoting="pp", matmul=mm))
        runners = (("pcalu", run_pcalu), ("pdgesv", run_pdgesv))
        for (name, run), mm, piv in itertools.product(runners, MATMULS, PIVOTINGS):
            yield f"{name} {where} {piv} {mm}", partial(run, grid, n, pivoting=piv, matmul=mm)
    for grid in ((2, 2),) if quick else ((2, 2), (3, 5), (1, 4), (4, 1), (4, 4)):
        for shape, mm in itertools.product(((40, 33, 29), (32, 32, 32)), MATMULS):
            yield (f"pdgemm {grid[0]}x{grid[1]} {'x'.join(map(str, shape))} {mm}",
                   partial(run_pdgemm, grid, shape, mm))


def sequential_lines(quick: bool):
    """Yield ``(config, callable -> objects)`` for the simulator-free drivers."""
    import numpy as np

    from repro.core import calu, tslu
    from repro.kernels.flops import FlopCounter
    from repro.randmat import randn, tall_skinny

    def panel(kind, m, b):
        if kind == "randn":
            return tall_skinny(m, b, seed=m)
        return np.sign(tall_skinny(m, b, seed=m + 1))  # exact ties everywhere

    def run_tslu(kind, m, b, P, piv, sched, part):
        flops = FlopCounter()
        res = tslu(panel(kind, m, b), P, flops=flops, schedule=sched, partition=part,
                   pivoting=piv)
        return [res.L, res.U, res.perm, res.winners, res.tournament.rounds, flops]

    def run_calu(n, P, piv, sched, part):
        res = calu(randn(n, seed=n), 7, P, schedule=sched, partition=part, pivoting=piv)
        return [res.L, res.U, res.perm, res.flops]

    def run_calu_record(n, P, piv, sched, part):
        res = calu(randn(n, seed=n), 7, P, schedule=sched, partition=part, pivoting=piv,
                   track_growth=True, compute_thresholds=True)
        return [res.packed, res.perm, res.growth_history, res.threshold_history, res.flops]

    knobs = list(itertools.product(
        PIVOTINGS, ("binary", "flat", "butterfly"), ("contiguous", "block_cyclic")
    ))
    shapes = ((53, 7),) if quick else ((64, 8), (53, 7))
    for kind, (m, b), P in itertools.product(
        ("randn", "tie"), shapes, (3, 8) if quick else (1, 3, 4, 8)
    ):
        for piv, sched, part in knobs:
            yield (f"tslu {kind} {m}x{b} P={P} {piv} {sched} {part}",
                   partial(run_tslu, kind, m, b, P, piv, sched, part))
    calu_grid = itertools.product((53,) if quick else (40, 53), (4,) if quick else (2, 4))
    for n, P in calu_grid:
        for (piv, sched, part), (suffix, run) in itertools.product(
            knobs, (("", run_calu), (" record", run_calu_record))
        ):
            yield (f"calu n={n} b=7 P={P} {piv} {sched} {part}{suffix}",
                   partial(run, n, P, piv, sched, part))


def key_lines():
    import tempfile

    from repro.harness import all_specs
    from repro.harness.factor_cache import factor_key
    from repro.harness.store import ResultStore, context_key

    def keyed(fn, *args, **kwargs):
        # Older trees take the tier and the engine as arguments; the current
        # ones key the same "lapack" and "coroutine" as constants.
        params = inspect.signature(fn).parameters
        for name, value in (("kernel_tier", "lapack"), ("engine", "coroutine")):
            if name in params:
                kwargs[name] = value
        return fn(*args, **kwargs)

    yield "key context", keyed(context_key, "table1", {"seed": 0, "n": 64})
    yield "key factor", keyed(factor_key, "randn", 96, 3, 2, 4, 8, pivoting="ca",
                              matmul="summa")
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(root=tmp)
        for spec, quick in itertools.product(all_specs(), (False, True)):
            yield (f"key spec={spec.name}{' quick' if quick else ''}",
                   store.run_config(spec, quick=quick)[2])


def rows_lines(quick: bool):
    """Yield ``(config, callable -> rows)`` for every registered spec."""
    from repro.harness import all_specs

    for spec, q in itertools.product(all_specs(), (True,) if quick else (False, True)):
        yield f"rows spec={spec.name}{' quick' if q else ''}", partial(spec.run, quick=q)


def attempt(fn):
    """``fn()``, or the name of what it raised (a defined answer is a digest too)."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception type *is* the result
        return f"raised {type(exc).__name__}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the src/ directory to import repro from (default: this checkout)")
    parser.add_argument("--quick", action="store_true",
                        help="a small sub-matrix (the CI smoke test)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads: threaded BLAS sums differ

    for config, fn in simulated_lines(args.quick):
        result = attempt(fn)
        if isinstance(result, str):
            simulated = engine_hash = result
        else:
            simulated, engine_hash = sha(result[0]), sha(result[1])
        print(f"{config}  {simulated}  {engine_hash}")
    for config, fn in sequential_lines(args.quick):
        result = attempt(fn)
        print(f"{config}  {result if isinstance(result, str) else sha(result)}")
    for config, key in key_lines():
        print(f"{config}  {key}")
    for config, fn in rows_lines(args.quick):
        rows = attempt(fn)
        if not isinstance(rows, str):
            rows = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        print(f"{config}  {rows}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
