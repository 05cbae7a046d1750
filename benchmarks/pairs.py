#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with CPU time beside wall-clock.

    python benchmarks/pairs.py PARENT CHANGE --pairs 10 --seed 1 --out DIR

``PARENT`` and ``CHANGE`` are two checkouts of the repository (e.g. a ``git
clone`` of the parent commit and the working tree).  Each pair runs every
workload once per side, ``benchmarks/e2e/run.py --workload W --seed S --runs 1``
in that checkout; even pairs run the parent first, odd pairs the change
first, so drift on a shared box falls on both sides alike.

Around each ``run.py`` child the script records its wall-clock and its
process CPU time (user + system of the child and every process it waited
for, from ``getrusage(RUSAGE_CHILDREN)``).  CPU time is less sensitive than
wall-clock to a neighbour taking a core, so a host-time difference that
shows in both is more than noise.

``DIR`` receives ``A.json`` and ``B.json`` (the merged result files, one run
per pair, in ``run.py --json`` form) and ``compare.txt``: per workload, the
median of the per-pair ratios B / A with their range for every end-to-end
metric and for the child's CPU and wall time, how many simulated values
(``sim_*``) are exactly equal, the failed operations, and then the output of
``benchmarks/e2e/compare.py A.json B.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

RUN = Path("benchmarks") / "e2e" / "run.py"
COMPARE = Path("benchmarks") / "e2e" / "compare.py"
SIM = ("sim_time_s", "sim_messages", "sim_words")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             out: Path) -> Tuple[dict, float, float]:
    """One ``run.py`` child: its result, wall-clock and CPU seconds."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--runs", "1", "--json", str(out)]
    cpu0, wall0 = children_cpu_s(), time.perf_counter()
    subprocess.run(command, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    wall, cpu = time.perf_counter() - wall0, children_cpu_s() - cpu0
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)["workloads"][workload][0]
    return result, wall, cpu


def ratio_cell(pairs: List[Tuple[float, float]]) -> str:
    ratios = [b / a for a, b in pairs if a]
    if not ratios:
        return "n/a"
    return f"{statistics.median(ratios):.3f} [{min(ratios):.2f}-{max(ratios):.2f}]"


def summary(side: Dict[str, Dict[str, list]], metrics: Sequence[str]) -> List[str]:
    lines = ["# Median of per-pair ratios (B / A), [min-max over the pairs]:"]
    for workload, runs_a in side["A"].items():
        runs_b = side["B"][workload]
        cells = []
        for name in [m for m in metrics if m not in SIM] + ["cpu_s", "wall_s"]:
            pairs = [(a[name], b[name]) for a, b in zip(runs_a, runs_b)
                     if name in a and name in b]
            if pairs:
                cells.append(f"{name} {ratio_cell(pairs)}")
        equal = sum(a[name] == b[name] for a, b in zip(runs_a, runs_b)
                    for name in SIM if name in a)
        total = sum(name in a for a in runs_a for name in SIM)
        failed = (sum(a["failed"] for a in runs_a), sum(b["failed"] for b in runs_b))
        lines.append(f"#   {workload:<12} " + "  ".join(cells)
                     + f"  (sim equal {equal}/{total}; failed A={failed[0]} B={failed[1]})")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit (A)")
    parser.add_argument("change", type=Path, help="checkout of the change (B)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", default=None,
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--out", type=Path, required=True, help="directory for the output")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    change = args.change.resolve()
    with open(change / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    metrics = [m["name"] for m in declared["end_to_end"]]
    checkouts = {"A": args.parent.resolve(), "B": change}
    args.out.mkdir(parents=True, exist_ok=True)

    files = {s: {"schema": 1, "seed": args.seed, "trace": 0, "scale": "full",
                 "seconds": args.seconds, "workloads": {w: [] for w in workloads}}
             for s in "AB"}
    values: Dict[str, Dict[str, list]] = {s: {w: [] for w in workloads} for s in "AB"}
    for pair in range(args.pairs):
        order = "AB" if pair % 2 == 0 else "BA"
        for workload in workloads:
            for s in order:
                result, wall, cpu = run_once(checkouts[s], workload, args.seed,
                                             args.seconds, args.out / f"run.{s}.json")
                files[s]["workloads"][workload].append(result)
                row = {name: m["value"] for name, m in result["metrics"].items()}
                row.update(cpu_s=cpu, wall_s=wall, failed=result["failed"])
                values[s][workload].append(row)
                print(f"pair {pair} {s} {workload}: wall {wall:.1f} s, cpu {cpu:.1f} s",
                      file=sys.stderr)
    for s in "AB":
        (args.out / f"run.{s}.json").unlink(missing_ok=True)
        with open(args.out / f"{s}.json", "w", encoding="utf-8") as fh:
            json.dump(files[s], fh, indent=1)

    compared = subprocess.run(
        [sys.executable, str(change / COMPARE), str(args.out / "A.json"),
         str(args.out / "B.json")],
        check=False, stdout=subprocess.PIPE, text=True,
    )
    header = [
        f"# {args.pairs} alternating pairs, seed {args.seed}, --seconds {args.seconds:g}:"
        f" A = {checkouts['A'].name}/, B = {checkouts['B'].name}/;",
        "# even pairs ran A first, odd pairs B first; cpu_s / wall_s are each run.py"
        " child's process CPU time and wall-clock.",
        *summary(values, metrics),
        f"# compare.py exit {compared.returncode}:",
        "",
    ]
    (args.out / "compare.txt").write_text("\n".join(header) + compared.stdout,
                                          encoding="utf-8")
    print("\n".join(header) + compared.stdout)
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
