#!/usr/bin/env python3
"""Bit-identity digest: one SHA-256 line per configuration, diffable across commits.

A refactor that claims "same bits" proves it by running this script twice —
once with ``--src`` at a ``git clone`` of the parent, once at the change — and
diffing the two outputs (the script pins BLAS to one thread)::

    python benchmarks/digest.py --src /path/to/parent/src > parent.txt
    python benchmarks/digest.py > change.txt && diff parent.txt change.txt

Simulated lines (``ptslu`` / ``pdgetrf`` / ``pcalu`` / ``pdgesv`` / ``pdgemm``,
each under ``engine=coroutine`` and ``engine=event``) carry two hashes.  The
factorization drivers are called only as ``pcalu(A, config=...)`` and
``pdgesv(A, B, config=...)``; a ``pdgetrf`` line is ``pcalu`` with
``pivoting="pp"``.  The two hashes are:

* the *parity* hash — every ``RankTrace`` field of every rank that the two
  engines must agree on (messages and words sent and received, per-channel
  counts, muladds, divides, comparisons, clock, ``zero_copy_sends``) plus the
  outputs as raw bytes (ptslu: ``L``, ``U``, ``perm``, ``winners``; pdgetrf /
  pcalu: ``L``, ``U``, ``perm``, ``swaps``; pdgesv: ``x``, residual, per-RHS
  and backward-error histories, iterations, ``L``, ``U``, ``perm``, factor and
  solve traces; pdgemm: ``C``);
* the *engine* hash — what legitimately differs between the engines
  (``group_collectives`` per rank, ``RunTrace.engine``).

The script itself asserts that every ``engine=event`` line has the parity hash
of its ``engine=coroutine`` twin: the raw hashes depend on the platform's
BLAS, that equality does not, which is what CI runs (``--quick``).

Sequential lines (``tslu`` / ``calu``: no simulator, no engine) hash ``L``,
``U``, ``perm`` and the flop ledger over pivoting x schedule x tier x partition
x ragged shapes, on ``randn`` and exact-tie (``+-1``) panels.  ``key`` lines
pin the default-config store and factor keys, and the store key
``ResultStore.run_config`` gives every registered spec at its defaults and
under ``quick``.

Matrix (full): ptslu P in 1,2,3,5,6,8,13,16 x ca/pp/ca_prrp x auto/reference x
block/block-cyclic (m = 8P+5, b = 8); pdgetrf, pcalu, pdgesv on 2x2, 4x2, 3x5,
1x4, 4x1, 4x4 x n in 40,53 (b = 7, ragged) x ca/pp/ca_prrp x summa/caps x
auto/reference (ibm_power5, nrhs = 2); pdgemm on five grids x summa/caps x two
shapes — the 860-line matrix of ``BENCH_18.digest.txt`` — plus tslu on 64x8,
53x7 x P in 1,3,4,8 and calu on n in 40,53 (b = 7) x P in 2,4.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import struct
import sys
from functools import partial
from pathlib import Path

ENGINES = ("coroutine", "event")
PIVOTINGS = ("ca", "pp", "ca_prrp")
TIERS = ("auto", "reference")
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
    """``(what both engines must agree on, what may differ)`` of a RunTrace."""
    parity = [
        (
            r.rank, r.messages_sent, r.messages_received, r.words_sent,
            r.words_received, r.messages_by_channel, r.words_by_channel,
            r.flops, r.clock, r.zero_copy_sends,
        )
        for r in trace.ranks
    ]
    return parity, ([r.group_collectives for r in trace.ranks], trace.engine)


def simulated_lines(quick: bool):
    """Yield ``(config, engine, callable -> (parity objects, engine objects))``."""
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

    def run_ptslu(engine, P, piv, tier, layout):
        res = ptslu(tall_skinny(8 * P + 5, 8, seed=P), P, layout=layout,
                    machine=ibm_power5(), engine=engine, kernel_tier=tier, pivoting=piv)
        parity, eng = trace_fields(res.trace)
        return [res.L, res.U, res.perm, res.winners, parity], eng

    def run_pcalu(grid, n, **knobs):
        res = pcalu(randn(n, seed=n), config=config(grid, **knobs))
        parity, eng = trace_fields(res.trace)
        return lu_outputs(res) + [parity], eng

    def run_pdgesv(grid, n, **knobs):
        res = pdgesv(randn(n, seed=n), randn(n, 2, seed=n + 1), config=config(grid, **knobs))
        fparity, feng = trace_fields(res.factorization.trace)
        sparity, seng = trace_fields(res.trace)
        return [res.x, res.residual_norms, res.per_rhs_residuals, res.backward_errors,
                res.iterations, lu_outputs(res.factorization), fparity, sparity], [feng, seng]

    def run_pdgemm(engine, grid, shape, mm):
        m, k, n = shape
        res = pdgemm(randn(m, k, seed=1), randn(k, n, seed=2), grid=ProcessGrid(*grid),
                     block_size=7, matmul=mm, machine=ibm_power5(), engine=engine)
        parity, eng = trace_fields(res.trace)
        return [res.C, parity], eng

    procs = (3, 8) if quick else (1, 2, 3, 5, 6, 8, 13, 16)
    grids = ((2, 2), (3, 5)) if quick else ((2, 2), (4, 2), (3, 5), (1, 4), (4, 1), (4, 4))
    sizes = (53,) if quick else (40, 53)
    for engine in ENGINES:
        for P, piv, tier, layout in itertools.product(
            procs, PIVOTINGS, TIERS, ("block", "block_cyclic")
        ):
            yield (f"ptslu P={P} {piv} {tier} {layout}", engine,
                   partial(run_ptslu, engine, P, piv, tier, layout))
        for grid, n in itertools.product(grids, sizes):
            where = f"{grid[0]}x{grid[1]} n={n} b=7"
            for mm in MATMULS:
                yield (f"pdgetrf {where} {mm}", engine,
                       partial(run_pcalu, grid, n, engine=engine, pivoting="pp", matmul=mm))
            runners = (("pcalu", run_pcalu), ("pdgesv", run_pdgesv))
            for (name, run), mm, tier, piv in itertools.product(
                runners, MATMULS, TIERS, PIVOTINGS
            ):
                yield (f"{name} {where} {piv} {mm} {tier}", engine,
                       partial(run, grid, n, engine=engine, pivoting=piv, matmul=mm,
                               kernel_tier=tier))
        for grid in ((2, 2),) if quick else ((2, 2), (3, 5), (1, 4), (4, 1), (4, 4)):
            for shape, mm in itertools.product(((40, 33, 29), (32, 32, 32)), MATMULS):
                yield (f"pdgemm {grid[0]}x{grid[1]} {'x'.join(map(str, shape))} {mm}", engine,
                       partial(run_pdgemm, engine, grid, shape, mm))


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

    def run_tslu(kind, m, b, P, piv, sched, tier, part):
        flops = FlopCounter()
        res = tslu(panel(kind, m, b), P, flops=flops, schedule=sched, partition=part,
                   kernel_tier=tier, pivoting=piv)
        return [res.L, res.U, res.perm, res.winners, res.tournament.rounds, flops]

    def run_calu(n, P, piv, sched, tier, part):
        res = calu(randn(n, seed=n), 7, P, schedule=sched, partition=part,
                   kernel_tier=tier, pivoting=piv)
        return [res.L, res.U, res.perm, res.flops]

    knobs = list(itertools.product(
        PIVOTINGS, ("binary", "flat", "butterfly"), TIERS, ("contiguous", "block_cyclic")
    ))
    shapes = ((53, 7),) if quick else ((64, 8), (53, 7))
    for kind, (m, b), P in itertools.product(
        ("randn", "tie"), shapes, (3, 8) if quick else (1, 3, 4, 8)
    ):
        for piv, sched, tier, part in knobs:
            yield (f"tslu {kind} {m}x{b} P={P} {piv} {sched} {tier} {part}",
                   partial(run_tslu, kind, m, b, P, piv, sched, tier, part))
    for n, P in itertools.product((53,) if quick else (40, 53), (4,) if quick else (2, 4)):
        for piv, sched, tier, part in knobs:
            yield (f"calu n={n} b=7 P={P} {piv} {sched} {tier} {part}",
                   partial(run_calu, n, P, piv, sched, tier, part))


def key_lines():
    import tempfile

    from repro.harness import all_specs
    from repro.harness.factor_cache import factor_key
    from repro.harness.store import ResultStore, context_key

    for engine in ENGINES:
        yield (f"key context engine={engine}",
               context_key("table1", {"seed": 0, "n": 64}, "lapack", engine))
        yield (f"key factor engine={engine}",
               factor_key("randn", 96, 3, 2, 4, 8, "ca", "lapack", engine, "summa"))
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(root=tmp)
        for spec, quick in itertools.product(all_specs(), (False, True)):
            yield (f"key spec={spec.name}{' quick' if quick else ''}",
                   store.run_config(spec, quick=quick)[2])


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
                        help="a small sub-matrix (CI: checks event == coroutine parity)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads: threaded BLAS sums differ

    parity_of = {}
    mismatched = []
    for config, engine, fn in simulated_lines(args.quick):
        result = attempt(fn)
        if isinstance(result, str):
            parity = engine_hash = result
        else:
            parity, engine_hash = sha(result[0]), sha(result[1])
        print(f"{config.replace(' ', f' engine={engine} ', 1)}  {parity}  {engine_hash}")
        if parity_of.setdefault(config, parity) != parity:
            mismatched.append(config)
    for config, fn in sequential_lines(args.quick):
        result = attempt(fn)
        print(f"{config}  {result if isinstance(result, str) else sha(result)}")
    for config, key in key_lines():
        print(f"{config}  {key}")
    sys.stdout.flush()
    if mismatched:
        print(f"digest: {len(mismatched)} engine=event line(s) differ from their "
              f"engine=coroutine twin: {mismatched[:5]}", file=sys.stderr)
        return 1
    print(f"digest: {len(parity_of)} event/coroutine pairs agree", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
