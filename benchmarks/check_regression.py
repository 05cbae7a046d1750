"""Benchmark-regression gate: compare a run's JSON against the committed baseline.

Usage::

    python benchmarks/check_regression.py <results.json> [<baseline.json>]

``results.json`` is a ``pytest-benchmark --benchmark-json`` output;
``baseline.json`` defaults to ``benchmarks/baseline.json`` next to this file.

Two kinds of gates are applied, both driven by the baseline file:

``floor``
    Machine-independent minima on recorded ``extra_info`` metrics (speedup
    ratios measured within one run — e.g. the batched tournament round must
    stay >= 5x the sequential merges).

``relative``
    The end-to-end CALU gate of the issue: the run's
    ``speedup_vs_reference`` (auto tier vs reference tier, same machine,
    same run) must not degrade by more than ``allowed_slowdown`` (1.5x)
    against the committed baseline speedup.  Comparing ratios rather than
    wall-clock keeps the gate meaningful across differently-sized CI
    runners.

Exits non-zero, listing every violated gate, when a regression is detected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_benchmarks(path: Path) -> dict:
    """``extra_info`` of every benchmark in a pytest-benchmark JSON, by name."""
    data = json.loads(path.read_text())
    return {
        bench["name"].split("[")[0]: bench.get("extra_info", {})
        for bench in data.get("benchmarks", [])
    }


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    results_path = Path(argv[1])
    baseline_path = (
        Path(argv[2]) if len(argv) > 2 else Path(__file__).parent / "baseline.json"
    )
    results = load_benchmarks(results_path)
    baseline = json.loads(baseline_path.read_text())
    allowed_slowdown = float(baseline.get("allowed_slowdown", 1.5))

    failures = []
    for name, gates in baseline.get("benchmarks", {}).items():
        info = results.get(name)
        if info is None:
            failures.append(f"{name}: benchmark missing from results")
            continue
        for key, floor in gates.get("floor", {}).items():
            value = info.get(key)
            if value is None:
                failures.append(f"{name}: extra_info[{key!r}] missing")
            elif float(value) < float(floor):
                failures.append(
                    f"{name}: {key} = {float(value):.3f} below floor {floor}"
                )
        rel = gates.get("relative")
        if rel:
            key = rel["metric"]
            base = float(rel["value"])
            value = info.get(key)
            if value is None:
                failures.append(f"{name}: extra_info[{key!r}] missing")
            elif float(value) * allowed_slowdown < base:
                failures.append(
                    f"{name}: {key} = {float(value):.3f} is more than "
                    f"{allowed_slowdown}x worse than baseline {base:.3f}"
                )

    if failures:
        print("benchmark regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"benchmark regression gate passed ({len(baseline.get('benchmarks', {}))} "
          f"benchmarks checked against {baseline_path.name})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
