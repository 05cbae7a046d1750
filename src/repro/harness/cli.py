"""``python -m repro`` — the command-line front end of the experiment registry.

Subcommands
-----------
``repro list``
    Show every registered spec: name, paper reference, parameters, cached
    artifact count.
``repro run SPEC [SPEC ...]``
    Run specs through the content-addressed cache (``--force`` recomputes,
    ``--no-cache`` bypasses the store) and print the rows.
``repro sweep SPEC --param P=4,16,64 --param b=8,32``
    Expand a parameter grid and run the combinations concurrently.
``repro report [SPEC ...]``
    Render cached artifacts without re-running anything.
``repro tune``
    Search the :class:`~repro.core.options.SolveConfig` space for one
    workload: rank candidates by the analytic models' predicted time,
    simulate the best few to confirm, store the winner (and the
    predicted-vs-simulated gap) as a content-addressed tune artifact.
``repro serve``
    Start a :class:`~repro.harness.serving.SolveService` on a (cached)
    factorization, fire concurrent solve requests at it, and report
    per-request latency/residuals plus throughput.  ``--tuned`` loads a
    stored tune artifact's winning configuration as the defaults.
``repro cache``
    List or purge the content-addressed stores (experiment results and
    cached factorizations): artifact counts, bytes, per-spec breakdown.

Knob flags: ``--tier`` (kernel tier), ``--pivoting``, ``--matmul`` — on
``run``/``sweep``/``tune`` the spec parameter of that name (``--tier`` sets
``kernel_tier``), on ``serve`` the :class:`~repro.core.options.SolveConfig`
field.  The engine has one value, so it has no flag; ``--set engine=...``
still reaches a spec that takes the parameter.  Also
``--results-dir`` (artifact store root, also ``REPRO_RESULTS_DIR``),
``--factor-cache-dir`` (factor cache root, also ``REPRO_FACTOR_CACHE_DIR``),
``--format text|csv|json|markdown``, ``--quick`` (scaled-down sizes).
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Dict, List, Optional, Sequence

from ..core.options import SolveConfig, UnknownOptionError
from ..experiments.report import format_table, rows_to_csv, rows_to_json
from .spec import ExperimentSpec, all_specs, get_spec, spec_names
from .store import FetchResult, ResultStore
from .sweep import SweepJob, run_sweep

FORMATS = ("text", "csv", "json", "markdown")


def _parse_value(text: str) -> object:
    """Parse a CLI parameter value: Python literal when possible, else str."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_set(items: Optional[Sequence[str]]) -> Dict[str, object]:
    """Parse repeated ``--set key=value`` overrides."""
    overrides: Dict[str, object] = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --set expects key=value, got {item!r}")
        overrides[key] = _parse_value(value)
    return overrides


def _parse_grid(items: Optional[Sequence[str]]) -> Dict[str, List[object]]:
    """Parse repeated ``--param key=v1,v2,...`` sweep axes."""
    grid: Dict[str, List[object]] = {}
    for item in items or ():
        key, sep, values = item.partition("=")
        if not sep or not key or not values:
            raise SystemExit(f"error: --param expects key=v1,v2,..., got {item!r}")
        grid[key] = [_parse_value(v) for v in values.split(",")]
    return grid


def config_from_args(args: argparse.Namespace) -> SolveConfig:
    """Build the fully resolved :class:`SolveConfig` one command runs under.

    Reads whatever configuration flags the verb defines (``--tier`` /
    ``--pivoting`` / ``--matmul`` from :func:`add_config_args`,
    plus ``--P`` / ``--b`` / ``--requests`` / ``--machine`` where present).
    Precedence per field: explicit flag > the ``--tuned`` artifact's value
    (where the verb has ``--tuned``; never its engine or machine) > default.
    Invalid values exit with the offender named.
    """
    tuned: Optional[SolveConfig] = None
    ref = getattr(args, "tuned", None)
    if ref:
        from .tuning import load_tuned_config

        try:
            tuned = load_tuned_config(ref, store=_store(args))
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        print(
            f"tuned defaults: b={tuned.b} grid={tuned.nprow}x{tuned.npcol} "
            f"pivoting={tuned.pivoting} tier={tuned.kernel_tier} "
            f"matmul={tuned.matmul} (from {ref})",
            file=sys.stderr,
        )

    def pick(flag: str, field: str) -> object:
        value = getattr(args, flag, None)
        if value is None or value == "":
            return getattr(tuned, field) if tuned else None
        return value

    try:
        return SolveConfig.resolve(
            pivoting=pick("pivoting", "pivoting"),
            kernel_tier=pick("tier", "kernel_tier"),
            matmul=pick("matmul", "matmul"),
            grid=pick("P", "grid"),
            b=pick("b", "b"),
            nrhs=getattr(args, "requests", None),
            machine=getattr(args, "machine", None),
        )
    except UnknownOptionError as exc:
        raise SystemExit(f"error: {exc}") from None


#: Knob flag -> the spec parameter it sets on ``run`` / ``sweep`` / ``tune``.
KNOB_FLAGS = {"tier": "kernel_tier", "pivoting": "pivoting", "matmul": "matmul"}


def knob_overrides(
    spec: ExperimentSpec,
    overrides: Dict[str, object],
    args: argparse.Namespace,
    exclude: Sequence[str] = (),
) -> Dict[str, object]:
    """Merge the knob flags into ``overrides`` as ``spec``'s parameters.

    A flag is the spec parameter of its name and nothing else: a flag naming
    a parameter the spec lacks, or an unknown knob value, exits before
    anything runs.  An explicit ``--set pivoting=...`` still wins; ``exclude``
    names parameters that must not be set (sweep axes already spanning the
    knob).
    """
    flags: Dict[str, object] = {}
    for flag, param in KNOB_FLAGS.items():
        value = getattr(args, flag, None)
        if not value:
            continue
        if param not in spec.params:
            raise SystemExit(
                f"error: --{flag} sets parameter {param!r}, which spec "
                f"{spec.name!r} does not take; its parameters: {sorted(spec.params)}"
            )
        flags[param] = value
    try:
        SolveConfig.resolve(**flags)
    except UnknownOptionError as exc:
        raise SystemExit(f"error: {exc}") from None
    return {**{p: v for p, v in flags.items() if p not in exclude}, **overrides}


def _store(args: argparse.Namespace) -> ResultStore:
    return ResultStore(root=getattr(args, "results_dir", None))


def _emit(
    rows: List[Dict[str, object]],
    args: argparse.Namespace,
    columns: Optional[Sequence[str]] = None,
    metadata: Optional[Dict[str, object]] = None,
    title: Optional[str] = None,
) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(rows_to_json(rows, metadata=metadata))
    elif fmt == "csv":
        print(rows_to_csv(rows, columns=columns, metadata=metadata))
    else:
        print(
            format_table(rows, columns=columns, title=title, markdown=(fmt == "markdown"))
        )


def _status_line(fetch: FetchResult, spec: ExperimentSpec) -> str:
    source = "cache hit" if fetch.cached else f"ran in {fetch.artifact['elapsed_s']:.2f}s"
    ref = f" [{spec.paper_ref}]" if spec.paper_ref else ""
    return (
        f"{spec.name}{ref}: {fetch.artifact['n_rows']} rows ({source}; "
        f"tier={fetch.artifact['kernel_tier']}, engine={fetch.artifact['engine']}, "
        f"pivoting={fetch.artifact.get('pivoting', 'ca')}, "
        f"matmul={fetch.artifact.get('matmul', 'summa')}, "
        f"key={fetch.artifact['key'][:12]})"
    )


def _artifact_metadata(artifact: Dict[str, object]) -> Dict[str, object]:
    return {k: artifact[k] for k in artifact if k != "rows"}


# ------------------------------------------------------------------- commands
def cmd_list(args: argparse.Namespace) -> int:
    store = _store(args)
    rows = []
    for spec in all_specs():
        rows.append(
            {
                "name": spec.name,
                "paper": spec.paper_ref or "-",
                "params": " ".join(sorted(spec.params)) or "-",
                "sweep axes": " ".join(spec.sweepable) or "-",
                "cached": store.count(spec.name),
                "title": spec.title,
            }
        )
    _emit(rows, args, title=None)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    store = _store(args)
    overrides = _parse_set(args.set)
    for name in [n for n in args.specs if n in spec_names()]:  # flags checked first
        knob_overrides(get_spec(name), overrides, args)
    failures = 0
    for name in args.specs:
        try:
            spec = get_spec(name)
            fetch = store.fetch_or_run(
                spec,
                knob_overrides(spec, overrides, args) or None,
                quick=args.quick,
                force=args.force,
                use_cache=not args.no_cache,
            )
        except Exception as exc:  # keep going: report per-spec failures at exit
            print(f"{name}: FAILED ({exc})", file=sys.stderr)
            failures += 1
            continue
        print(_status_line(fetch, spec), file=sys.stderr)
        _emit(
            fetch.rows,
            args,
            columns=spec.columns,
            metadata=_artifact_metadata(fetch.artifact),
            title=spec.title,
        )
    return 1 if failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    store = _store(args)
    spec = get_spec(args.spec)
    grid = _parse_grid(args.param)
    if not grid:
        raise SystemExit("error: sweep requires at least one --param axis")
    base = _parse_set(args.set)
    base = knob_overrides(spec, base, args, exclude=list(grid))

    def progress(job: SweepJob) -> None:
        state = "cached" if job.cached else (
            f"failed: {job.error}" if job.error else f"ran in {job.elapsed_s:.2f}s"
        )
        detail = " ".join(f"{k}={v}" for k, v in job.overrides.items())
        print(f"[{job.index + 1}/{job.total}] {spec.name} {detail}: {state}",
              file=sys.stderr)

    result = run_sweep(
        spec,
        grid,
        base=base or None,
        store=store,
        jobs=args.jobs,
        quick=args.quick,
        force=args.force,
        use_cache=not args.no_cache,
        progress=progress,
    )
    print(
        f"sweep {spec.name}: {len(result.jobs)} jobs, {result.hits} cache hits, "
        f"{result.misses} computed, peak parallelism {result.max_in_flight}, "
        f"{result.elapsed_s:.2f}s",
        file=sys.stderr,
    )
    for job in result.errors:
        print(f"  failed {job.overrides}: {job.error}", file=sys.stderr)
    _emit(
        result.rows(),
        args,
        metadata={"spec": spec.name, "grid": grid, "base": base},
        title=f"sweep: {spec.title}",
    )
    return 1 if result.errors else 0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _serve_requests(service, rhs_list, slo):
    """Fire one thread per request at a running service; return outcomes."""
    import threading

    outcomes: List[object] = [None] * len(rhs_list)
    barrier = threading.Barrier(len(rhs_list))

    def fire(i: int) -> None:
        barrier.wait()
        outcomes[i] = service.submit(rhs_list[i], slo=slo).result(timeout=300)

    threads = [
        threading.Thread(target=fire, args=(i,)) for i in range(len(rhs_list))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def _request_rhs(factor, kind: str, seed: int, count: int) -> List[object]:
    """Deterministic per-request right-hand sides for ``repro serve``."""
    import numpy as np

    from .factor_cache import generate_matrix

    A = generate_matrix(kind, factor.n, seed=seed)
    rng = np.random.default_rng(seed + 104729)
    return [A @ rng.standard_normal(factor.n) for _ in range(count)]


def cmd_tune(args: argparse.Namespace) -> int:
    store = _store(args)
    spec = get_spec("tune")
    overrides = _parse_set(args.set)
    for name in ("kind", "n", "nrhs", "P", "machine", "seed", "top_k",
                 "refine", "workload"):
        value = getattr(args, name, None)
        if value is not None and name not in overrides:
            overrides[name] = value
    overrides = knob_overrides(spec, overrides, args)
    try:
        fetch = store.fetch_or_run(
            spec,
            overrides or None,
            quick=args.quick,
            force=args.force,
            use_cache=not args.no_cache,
        )
    except Exception as exc:
        print(f"tune: FAILED ({exc})", file=sys.stderr)
        return 1
    print(_status_line(fetch, spec), file=sys.stderr)
    winner = next((r for r in fetch.rows if r.get("chosen")), None)
    if winner is None:
        print("tune: artifact has no chosen row", file=sys.stderr)
        return 1
    print(
        f"tune winner: b={winner['b']} grid={winner['grid']} "
        f"pivoting={winner['pivoting']} tier={winner['kernel_tier']} "
        f"matmul={winner['matmul']} predicted={winner['predicted_s']:.4g}s "
        f"simulated={winner['simulated_s']:.4g}s gap={winner['gap']:.1%} "
        f"({winner['enumerated']} candidates enumerated)",
        file=sys.stderr,
    )
    print(
        f"tune artifact: {fetch.path} (key={fetch.artifact['key'][:12]})",
        file=sys.stderr,
    )
    _emit(
        fetch.rows,
        args,
        columns=spec.columns,
        metadata=_artifact_metadata(fetch.artifact),
        title=spec.title,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .factor_cache import FactorCache
    from .serving import SolveService

    config = config_from_args(args)
    cache = FactorCache(root=args.factor_cache_dir)
    fetch = cache.fetch_or_factor(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        config=config,
        use_cache=not args.no_cache,
        force=args.force,
    )
    factor = fetch.factor
    print(
        f"factor cache {'hit' if fetch.cached else 'miss'} "
        f"(key={fetch.key[:12]}, kind={args.kind}, n={factor.n}, "
        f"grid={factor.nprow}x{factor.npcol}, b={factor.block_size}, "
        f"pivoting={factor.pivoting}, tier={factor.kernel_tier}, "
        f"engine={factor.engine}, matmul={factor.matmul})",
        file=sys.stderr,
    )

    rhs_list = _request_rhs(factor, args.kind, args.seed, args.requests)
    start = time.perf_counter()
    with SolveService(
        factor,
        window=args.window,
        linger_s=args.linger,
        refine=args.refine,
        default_slo=args.slo,
        config=config,
    ) as service:
        outcomes = _serve_requests(service, rhs_list, slo=args.slo)
    elapsed = time.perf_counter() - start

    rows = [
        {
            "request": i,
            "latency_ms": o.latency_s * 1e3,
            "residual": o.residual,
            "iterations": o.iterations,
            "met_slo": o.met_slo,
            "batch": o.batch_id,
            "batch_size": o.batch_size,
        }
        for i, o in enumerate(outcomes)
    ]
    latencies = [o.latency_s * 1e3 for o in outcomes]
    stats = service.stats
    print(
        f"served {stats.requests} requests in {stats.batches} batches "
        f"({stats.sweeps} pdtrsv sweeps) in {elapsed:.3f}s: "
        f"{stats.requests / elapsed:.1f} req/s, "
        f"p50 {_percentile(latencies, 50):.1f} ms, "
        f"p95 {_percentile(latencies, 95):.1f} ms, "
        f"slo_misses={stats.slo_misses}",
        file=sys.stderr,
    )
    _emit(
        rows,
        args,
        columns=("request", "latency_ms", "residual", "iterations", "met_slo",
                 "batch", "batch_size"),
        metadata={
            "kind": args.kind,
            "n": factor.n,
            "grid": f"{factor.nprow}x{factor.npcol}",
            "b": factor.block_size,
            "window": args.window,
            "factor_cached": fetch.cached,
            "factor_key": fetch.key,
            **stats.snapshot(),
        },
        title=f"solve service: {args.kind} n={factor.n} window={args.window}",
    )
    return 1 if stats.slo_misses else 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .factor_cache import FactorCache

    store = _store(args)
    factors = FactorCache(root=args.factor_cache_dir)

    if args.action == "purge":
        removed_bytes = sum(int(e["bytes"]) for e in store.entries())
        removed_results = store.purge()
        factor_bytes = factors.total_bytes()
        removed_factors = factors.purge()
        print(
            f"purged {removed_results} result artifacts ({removed_bytes} bytes) "
            f"and {removed_factors} cached factors ({factor_bytes} bytes)",
            file=sys.stderr,
        )
        return 0

    rows: List[Dict[str, object]] = []
    total_count = 0
    total_bytes = 0
    for entry in store.entries():
        rows.append(
            {
                "store": "results",
                "entry": entry["spec"],
                "artifacts": entry["artifacts"],
                "bytes": entry["bytes"],
            }
        )
        total_count += int(entry["artifacts"])
        total_bytes += int(entry["bytes"])
    for entry in factors.entries():
        rows.append(
            {
                "store": "factors",
                "entry": (
                    f"{entry.get('kind', '?')} n={entry['n']} "
                    f"{entry['nprow']}x{entry['npcol']} b={entry['block_size']} "
                    f"{entry['pivoting']}/{entry['kernel_tier']}/{entry['engine']}"
                    f"/{entry.get('matmul', 'summa')}"
                ),
                "artifacts": 1,
                "bytes": entry["bytes"],
            }
        )
        total_count += 1
        total_bytes += int(entry["bytes"])
    print(
        f"results store: {store.root} — factor cache: {factors.root} — "
        f"{total_count} artifacts, {total_bytes} bytes total",
        file=sys.stderr,
    )
    _emit(
        rows,
        args,
        columns=("store", "entry", "artifacts", "bytes"),
        metadata={
            "results_root": str(store.root),
            "factor_cache_root": str(factors.root),
            "total_artifacts": total_count,
            "total_bytes": total_bytes,
        },
        title="content-addressed caches",
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = _store(args)
    names = args.specs or [None]
    artifacts: List[Dict[str, object]] = []
    for name in names:
        artifacts.extend(store.artifacts(name))
    if not artifacts:
        print("no cached artifacts found; run `repro run <spec>` first",
              file=sys.stderr)
        return 1
    if args.format == "json":
        print(rows_to_json(
            [_artifact_metadata(a) | {"rows": a["rows"]} for a in artifacts],
            metadata={"store": str(store.root), "artifacts": len(artifacts)},
        ))
        return 0
    for artifact in artifacts:
        columns = artifact.get("columns")
        title = (
            f"{artifact['spec']} ({artifact.get('paper_ref') or 'scenario'}; "
            f"tier={artifact['kernel_tier']}, engine={artifact['engine']}, "
            f"pivoting={artifact.get('pivoting', 'ca')}, "
            f"matmul={artifact.get('matmul', 'summa')}, "
            f"key={artifact['key'][:12]}, {artifact['created_at']})"
        )
        _emit(artifact["rows"], args, columns=columns, title=title)
        print()
    return 0


# --------------------------------------------------------------------- parser
def add_config_args(p: argparse.ArgumentParser) -> None:
    """Add the shared :class:`SolveConfig` knob flags to one verb's parser.

    Every verb that runs anything gets the same three flags from this one
    definition; :func:`config_from_args` (``serve``) and
    :func:`knob_overrides` (``run`` / ``sweep`` / ``tune``) are the readers.
    """
    p.add_argument("--tier", default=None,
                   help="kernel tier (auto|reference|lapack)")
    p.add_argument("--pivoting", default=None,
                   help="pivoting strategy (pp|ca|ca_prrp)")
    p.add_argument("--matmul", default=None,
                   help="distributed matmul backend (summa|caps)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Registry-driven reproduction of the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, cache: bool = True) -> None:
        p.add_argument("--format", choices=FORMATS, default="text",
                       help="output format (default: text)")
        p.add_argument("--results-dir", default=None,
                       help="artifact store root (default: $REPRO_RESULTS_DIR or results/)")
        if cache:
            add_config_args(p)
            p.add_argument("--quick", action="store_true",
                           help="scaled-down sizes for smoke runs")
            p.add_argument("--force", action="store_true",
                           help="recompute even on a cache hit")
            p.add_argument("--no-cache", action="store_true",
                           help="bypass the result store entirely")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one spec parameter (repeatable)")

    p_list = sub.add_parser("list", help="show registered experiment specs")
    add_common(p_list, cache=False)
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run one or more specs (cached)")
    p_run.add_argument("specs", nargs="+", metavar="SPEC")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid concurrently")
    p_sweep.add_argument("spec", metavar="SPEC")
    p_sweep.add_argument("--param", action="append", metavar="KEY=V1,V2,...",
                         help="sweep axis (repeatable; cartesian product)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker threads (default: min(4, #jobs))")
    add_common(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_report = sub.add_parser("report", help="render cached artifacts")
    p_report.add_argument("specs", nargs="*", metavar="SPEC")
    add_common(p_report, cache=False)
    p_report.set_defaults(fn=cmd_report)

    def add_serving_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", default="randn",
                       help="matrix family (randn|uniform|toeplitz|diagonally_dominant)")
        p.add_argument("--n", type=int, default=96, help="matrix dimension")
        p.add_argument("--seed", type=int, default=0, help="matrix seed")
        p.add_argument("--P", type=int, default=None,
                       help="process count (near-square grid; default: 4)")
        p.add_argument("--b", type=int, default=None,
                       help="block size (default: 16)")
        p.add_argument("--tuned", nargs="?", const="latest", default=None,
                       metavar="PATH|KEY",
                       help="load defaults from a `repro tune` artifact "
                            "(path, key prefix, or 'latest' when bare)")
        p.add_argument("--requests", type=int, default=16,
                       help="number of solve requests to fire")
        p.add_argument("--slo", type=float, default=None,
                       help="per-request max-abs residual SLO")
        p.add_argument("--linger", type=float, default=0.02,
                       help="batching window linger in seconds")
        p.add_argument("--factor-cache-dir", default=None,
                       help="factor cache root (default: $REPRO_FACTOR_CACHE_DIR "
                            "or factors/)")

    p_tune = sub.add_parser(
        "tune",
        help="search the SolveConfig space by model prediction + simulation",
    )
    p_tune.add_argument("--kind", default=None,
                        help="matrix family (default: randn)")
    p_tune.add_argument("--n", type=int, default=None,
                        help="matrix dimension (default: 96)")
    p_tune.add_argument("--nrhs", type=int, default=None,
                        help="right-hand sides (default: 2)")
    p_tune.add_argument("--P", type=int, default=None,
                        help="process count (default: 4)")
    p_tune.add_argument("--machine", default=None,
                        help="machine model (ibm_power5|cray_xt4; "
                             "default: ibm_power5)")
    p_tune.add_argument("--seed", type=int, default=None,
                        help="matrix seed (default: 0)")
    p_tune.add_argument("--top-k", dest="top_k", type=int, default=None,
                        help="best-predicted candidates to simulate "
                             "(default: 3)")
    p_tune.add_argument("--refine", type=int, default=None,
                        help="refinement budget (default: 2)")
    p_tune.add_argument("--workload", choices=("solve", "matmul"), default=None,
                        help="workload to tune for (default: solve)")
    add_common(p_tune)
    p_tune.set_defaults(fn=cmd_tune)

    p_serve = sub.add_parser(
        "serve", help="serve concurrent solves from a cached factorization"
    )
    add_serving_common(p_serve)
    p_serve.add_argument("--window", type=int, default=8,
                         help="max RHS columns coalesced into one sweep")
    p_serve.add_argument("--refine", type=int, default=2,
                         help="refinement budget per batch")
    add_common(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="list or purge the result store and the factor cache"
    )
    p_cache.add_argument("action", nargs="?", choices=("list", "purge"),
                         default="list")
    p_cache.add_argument("--factor-cache-dir", default=None,
                         help="factor cache root (default: $REPRO_FACTOR_CACHE_DIR "
                              "or factors/)")
    add_common(p_cache, cache=False)
    p_cache.set_defaults(fn=cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
