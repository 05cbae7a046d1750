#!/usr/bin/env python3
"""One command for the repo's benchmark: run workloads, check outputs, print metrics.

    python benchmarks/e2e/run.py                      # all four workloads
    python benchmarks/e2e/run.py --workload solve_ref # one workload
    python benchmarks/e2e/run.py --trace 1            # per-layer split instead
    python benchmarks/e2e/run.py --runs 3 --json A.json   # a result file for compare.py

Each workload runs in a fresh subprocess, one at a time, with
``PYTHONPATH=src`` and the BLAS pools pinned to one thread, so a run uses at
most two threads (the serving workload has a dispatcher beside the client).
Every metric is printed by name with its unit; the last line of stdout is the
JSON object the driver reads (for the last workload run).

Seed 0 is the working seed; seed 1 is held out for claims.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from envinfo import THREAD_VARS  # noqa: E402
from metrics import WORKLOADS  # noqa: E402

#: A child gets this long before it is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """The parent's environment with the knobs the benchmark fixes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload: str, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload in a fresh interpreter; ``None`` when it produced no result."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--spawned-at", repr(time.time()),
    ]
    if args.spans_out:
        command += ["--spans-out", f"{args.spans_out}.{workload}.json"]
    child = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"error: {workload} exceeded {CHILD_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return None
    if child.returncode != 0 or not out.strip():
        print(f"error: {workload} exited with code {child.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def report(result: dict) -> None:
    """Every metric by name with its unit, then what the numbers rest on."""
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}  seed={result['seed']}  {kind}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in result["info"].items():
        print(f"  # {key}: {value}")
    for failure in result["failures"]:
        print(f"  ! {failure}")


def driver_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload this many times (interleaved)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write every run to this result file (for compare.py)")
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1: dump the spans to PREFIX.<workload>.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    last, ok = None, True
    for _ in range(args.runs):
        for name in names:
            result = run_child(name, args)
            if result is None:
                return 1
            report(result)
            runs[name].append(result)
            ok = ok and result["correct"]
            last = result
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "seed": args.seed, "trace": args.trace,
                       "scale": args.scale, "seconds": args.seconds,
                       "workloads": runs}, fh, indent=1)
    print(driver_line(last))
    return 0 if ok or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
