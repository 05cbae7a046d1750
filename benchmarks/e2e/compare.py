#!/usr/bin/env python3
"""Compare two result files written by ``run.py --json``.

    python benchmarks/e2e/compare.py A.json B.json            # parent vs change
    python benchmarks/e2e/compare.py A.json B.json --same-commit

One row per workload x end-to-end metric: both medians (with quartiles where
a side has several runs, or for ``host_s`` its op samples), the signed change
(positive = B is worse), the bound, and a verdict:

``improved``    B is better by more than A's own spread and wins >= 90 % of pairs
``unchanged``   the median is no worse than A's by more than the bound
``unresolved``  the spread is wider than the bound and the runs interleave
``regressed``   B's median is worse than A's by more than the bound
``disagree``    (``--same-commit`` only) the medians differ by more than the bound

The simulated quantities are exact: when both files used the same seed, any
difference in them is reported, however small.  Exits non-zero on a
regression (or disagreement), or when B failed more operations than A.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, EXACT  # noqa: E402


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(a: Sequence[float], b: Sequence[float], spread_a: Sequence[float],
          spread_b: Sequence[float], better: str, bound: float, exact: bool,
          same_commit: bool) -> Tuple[float, str]:
    """``(signed change, verdict)``; the change is positive when B is worse."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    if exact:
        if mb == ma:
            return 0.0, "unchanged"
        return worse, "disagree" if same_commit else ("regressed" if worse > 0 else "improved")
    if same_commit:
        return worse, "disagree" if abs(worse) > bound else "unchanged"
    qa, qb = quartiles(spread_a), quartiles(spread_b)
    iqr_a = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
    iqr_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0
    b_all_better = max(sign * x for x in b) < min(sign * x for x in a)
    b_all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    if max(iqr_a, iqr_b) > bound:
        if b_all_better:
            return worse, "improved"
        if b_all_worse and worse > bound:
            return worse, "regressed"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    pairs = list(zip(a, b))
    wins = sum(sign * y < sign * x for x, y in pairs) / len(pairs)
    # With a single run a side, its spread is unknown: demand the bound.
    noise = iqr_a if len(a) >= 4 else max(iqr_a, bound)
    if -worse > noise and wins >= 0.9:
        return worse, "improved"
    return worse, "unchanged"


def spread_values(runs: List[dict], name: str) -> List[float]:
    """What a side's quartiles come from: its runs, or one run's own samples."""
    samples = runs[0]["samples"].get(name)
    if len(runs) == 1 and samples:
        return samples
    return [r["metrics"][name]["value"] for r in runs]


def rows(file_a: dict, file_b: dict, same_commit: bool) -> List[dict]:
    out = []
    same_seed = file_a.get("seed") == file_b.get("seed")
    for workload, runs_a in file_a["workloads"].items():
        runs_b = file_b["workloads"].get(workload)
        if not runs_a or not runs_b:
            continue
        for name, unit, better, bound in END_TO_END:
            if name not in runs_a[0]["metrics"] or name not in runs_b[0]["metrics"]:
                continue
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            spread_a, spread_b = spread_values(runs_a, name), spread_values(runs_b, name)
            change, verdict = judge(
                a, b, spread_a, spread_b, better, bound,
                exact=name in EXACT and same_seed, same_commit=same_commit,
            )
            out.append(dict(
                workload=workload, metric=name, unit=unit, bound=bound,
                a=quartiles(spread_a), b=quartiles(spread_b),
                a_median=statistics.median(a), b_median=statistics.median(b),
                change=change, verdict=verdict,
            ))
    return out


def failed_ops(result_file: dict) -> int:
    return sum(r["failed"] for runs in result_file["workloads"].values() for r in runs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="result file of the parent (or the first run)")
    parser.add_argument("b", help="result file of the change (or the second run)")
    parser.add_argument("--same-commit", action="store_true",
                        help="two runs of one commit: they must agree within every bound")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        file_a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        file_b = json.load(fh)
    table = rows(file_a, file_b, args.same_commit)
    print(f"{'workload':<13} {'metric':<13} {'A median [q1..q3]':<34} "
          f"{'B median [q1..q3]':<34} {'change':>8} {'bound':>6}  verdict")
    for row in table:
        cells = [
            f"{row[side + '_median']:.6g} [{row[side][0]:.4g}..{row[side][2]:.4g}] {row['unit']}"
            for side in "ab"
        ]
        print(f"{row['workload']:<13} {row['metric']:<13} {cells[0]:<34} {cells[1]:<34} "
              f"{row['change']:>+8.2%} {row['bound']:>6.2f}  {row['verdict']}")
    fails_a, fails_b = failed_ops(file_a), failed_ops(file_b)
    print(f"failed operations: A={fails_a} B={fails_b}")
    bad = [r for r in table if r["verdict"] in ("regressed", "disagree")]
    if fails_b > fails_a:
        print("B failed more operations than A")
    return 1 if bad or fails_b > fails_a else 0


if __name__ == "__main__":
    sys.exit(main())
