#!/usr/bin/env python
"""Tour of the experiment registry: list, run (cached), sweep — from Python.

Everything ``python -m repro`` does is a thin layer over this API:

1. list the registered specs and their parameters;
2. run one spec through the content-addressed result store (the second call
   is a cache hit served from ``results/`` — or ``$REPRO_RESULTS_DIR``);
3. sweep a parameter grid concurrently, each point its own simulated run.

Run with::

    python examples/registry_tour.py
"""

from __future__ import annotations

import tempfile

from repro.experiments import format_table
from repro.harness import ResultStore, all_specs, get_spec, run_sweep


def main() -> None:
    print("== Registered experiment specs ==")
    for spec in all_specs():
        ref = spec.paper_ref or "scenario"
        print(f"  {spec.name:14s} [{ref}] params: {', '.join(sorted(spec.params))}")

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(root=tmp)

        print("\n== Run table1 (quick) through the store ==")
        first = store.fetch_or_run(get_spec("table1"), quick=True)
        again = store.fetch_or_run(get_spec("table1"), quick=True)
        print(f"  first call : cached={first.cached} "
              f"({first.artifact['elapsed_s']:.3f}s, key={first.artifact['key'][:12]})")
        print(f"  second call: cached={again.cached} (bit-identical rows: "
              f"{again.rows == first.rows})")

        print("\n== Sweep: measured TSLU panel messages over (P, b), simulated ==")
        result = run_sweep(
            get_spec("panel_counts"),
            grid={"P": (2, 4, 8), "b": (4, 8)},
            base={"m": 64},
            store=store,
            jobs=4,
        )
        print(format_table(result.rows(),
                           columns=["P", "b", "m", "max_messages_per_rank",
                                    "expected_log2P"]))
        print(f"  {len(result.jobs)} jobs, peak parallelism {result.max_in_flight}, "
              f"{result.elapsed_s:.2f}s; re-sweeping now hits the cache for all "
              f"{len(result.jobs)} points.")


if __name__ == "__main__":
    main()
