"""The benchmark's metric names, units, directions and bounds.

``BENCHMARK.json`` at the repo root lists the same names (the smoke test
checks they agree); this module is what the code reads.

Every workload reports every end-to-end metric.  What each name means on each
workload is in ``README.md``; in short, for the batch workloads an *op* is one
``pdgesv`` (``solve_ref``, ``engine_p1024``) or one round of three
``calu_solve`` calls (``kernels_seq``), and for ``serve_p64`` a request.

``bound`` is the share of the parent's median by which a metric may worsen
before a change counts as a regression.  The host-time bounds are set by the
box, not by taste: ten runs of one commit on the 2-core sandbox spread (first
to third quartile over median) by 3-10 % in ``host_s`` and by up to 8 % in the
serving tail, and no estimator (median, minimum, CPU time, calibration-
normalised) was markedly steadier.  A change claiming a gain smaller than that needs
the ten alternating pairs of the choosing-metrics guide, not one run.

The simulated quantities are exact for a given seed — ``compare.py`` flags
*any* change between two same-seed runs — but the pivots, and with them the
swap messages, depend on the matrix: across seeds they spread by 0.5 % on the
large systems and 2.6 % on ``serve_p64``'s n=256 one; their bound covers that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from boundaries import LAYERS

#: name, unit, better, bound
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("host_s", "s", "lower", 0.20),
    ("req_per_s", "1/s", "higher", 0.20),
    ("p50_ms", "ms", "lower", 0.25),
    ("p95_ms", "ms", "lower", 0.25),
    ("sim_time_s", "sim_s", "lower", 0.06),
    ("sim_messages", "count", "lower", 0.06),
    ("sim_words", "count", "lower", 0.06),
    ("peak_rss_mib", "MiB", "lower", 0.06),
    ("setup_s", "s", "lower", 0.25),
]

#: Exact for a fixed seed: a host-speed change must leave them identical.
EXACT = ("sim_time_s", "sim_messages", "sim_words")

_S, _N, _R = "s", "count", "ratio"

#: name, unit, better
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{layer}.self_s", _S, "lower") for layer in LAYERS]
    + [(f"{layer}.calls", _N, "lower") for layer in LAYERS]
    + [
        ("distsim.sched_s", _S, "lower"),
        ("distsim.resumes", _N, "lower"),
        ("distsim.collective_eval_s", _S, "lower"),
        ("distsim.payload_words_s", _S, "lower"),
        ("distsim.payload_words_calls", _N, "lower"),
        ("distsim.charge_s", _S, "lower"),
        ("distsim.group_collectives", _N, "higher"),
        ("distsim.zero_copy_ratio", _R, "higher"),
        ("distsim.host_us_per_message", "us", "lower"),
        ("parallel.factor_s", _S, "lower"),
        ("parallel.solve_s", _S, "lower"),
        ("parallel.driver_s", _S, "lower"),
        ("parallel.panel_s", _S, "lower"),
        ("scalapack.pdlaswp_s", _S, "lower"),
        ("scalapack.pdlaswp_calls", _N, "lower"),
        ("scalapack.pdgemm_s", _S, "lower"),
        ("scalapack.pdtrsv_s", _S, "lower"),
        ("matmul.share_panel_s", _S, "lower"),
        ("matmul.update_trailing_s", _S, "lower"),
        ("layouts.scatter_s", _S, "lower"),
        ("layouts.gather_s", _S, "lower"),
        ("layouts.scatter_bytes", "bytes", "lower"),
        ("kernels.getf2_s", _S, "lower"),
        ("kernels.getf2_calls", _N, "lower"),
        ("kernels.getf2_batched_s", _S, "lower"),
        ("kernels.gemm_s", _S, "lower"),
        ("kernels.gemm_calls", _N, "lower"),
        ("kernels.trsm_s", _S, "lower"),
        ("kernels.laswp_s", _S, "lower"),
        ("kernels.rrqr_s", _S, "lower"),
        ("kernels.flops", _N, "lower"),
        ("kernels.gflops_per_s", "Gflop/s", "higher"),
        ("kernels.scipy_ref_s", _S, "lower"),
        ("kernels.slowdown_vs_scipy", _R, "lower"),
        ("core.calu_ca_s", _S, "lower"),
        ("core.calu_pp_s", _S, "lower"),
        ("core.calu_prrp_s", _S, "lower"),
        ("core.tournament_s", _S, "lower"),
        ("core.merge_calls", _N, "lower"),
        ("sim.factor_time_s", "sim_s", "lower"),
        ("sim.solve_time_s", "sim_s", "lower"),
        ("sim.max_messages_per_rank", _N, "lower"),
        ("sim.flops", _N, "lower"),
        ("sim.pdgetrf_over_calu_time", _R, "higher"),
        ("sim.pdgetrf_over_calu_messages", _R, "higher"),
        ("sim.solve_model_exact", _R, "higher"),
        ("harness.factor_cache.miss_s", _S, "lower"),
        ("harness.factor_cache.hit_s", _S, "lower"),
        ("harness.factor_cache.save_s", _S, "lower"),
        ("harness.factor_cache.bytes", "bytes", "lower"),
        ("harness.store.miss_overhead_s", _S, "lower"),
        ("harness.store.hit_s", _S, "lower"),
        ("harness.serving.queue_wait_ms_p50", "ms", "lower"),
        ("harness.serving.queue_wait_ms_p95", "ms", "lower"),
        ("harness.serving.sweep_ms_p50", "ms", "lower"),
        ("harness.serving.mean_batch_cols", _N, "higher"),
        ("harness.serving.batch_fill", _R, "higher"),
        ("harness.serving.batches", _N, "lower"),
        ("harness.serving.sweeps", _N, "lower"),
        ("harness.serving.refinements", _N, "lower"),
        ("harness.serving.slo_miss_ratio", _R, "lower"),
        ("harness.serving.over_limit_ratio", _R, "lower"),
        ("harness.serving.generator_late_ms_p95", "ms", "lower"),
        ("harness.serving.p95_ms_closed", "ms", "lower"),
        ("trace.overhead_ratio", _R, "lower"),
        ("trace.spans", _N, "lower"),
        ("trace.coverage", _R, "higher"),
        ("trace.unresolved", _N, "lower"),
        ("env.calib_py_s", _S, "lower"),
        ("env.calib_gemm_s", _S, "lower"),
    ]
)

WORKLOADS: Dict[str, str] = {
    "solve_ref": (
        "pdgesv n=1024 on a 16x16 grid, b=16: the roadmap's reference point, "
        "every layer shows and none dominates"
    ),
    "engine_p1024": (
        "pdgesv n=256 on a 32x32 grid, b=4: 4x4 blocks make arithmetic "
        "negligible, so scheduler, collectives and cost charging dominate"
    ),
    "kernels_seq": (
        "sequential calu_solve n=2048 once per strategy ca/pp/ca_prrp: "
        "kernel-bound, bypasses the simulator, so an engine change predicts no change"
    ),
    "serve_p64": (
        "SolveService over one cached factor (n=256, 8x8 grid): thousands of "
        "small multi-RHS sweeps plus cache I/O, queueing, linger and batching"
    ),
}


def pack(names_units, values: Dict[str, float]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every listed metric (missing: 0.0)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, *_ in names_units
    }
