"""Steadiness report: do two blocks of runs of the same code agree?

Runs every workload in two separate blocks of runs, each block one run
per seed, each run a fresh process of ``run.py`` lasting ``run_seconds``.
For each end-to-end metric it prints each block's median and quartiles,
the spread (quartile distance over the median) and the difference
between the two blocks' medians, next to the metric's bound in
``BENCHMARK.json``::

    python3 e2ebench/steadiness.py --runs 10

A metric passes when each block's spread is within its bound and the two
blocks' medians differ by no more than the bound, in either direction.
The figures the bounds were set from are recorded in ``STEADINESS.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def agree(a: Dict[str, float], b: Dict[str, float], drift: float,
          bound: float) -> bool:
    """Both blocks' spreads and the change between them within ``bound``."""
    return max(a["spread"], b["spread"]) <= bound and abs(drift) <= bound


def report(runs: int) -> Dict[str, Any]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, runs + 1))
    blocks: Dict[str, List[List[Dict[str, Any]]]] = {w: [[], []] for w in workloads}
    for block in range(2):
        for seed in seeds:
            for workload in workloads:
                blocks[workload][block].append(run_once(workload, seed, seconds))
    summary: Dict[str, Any] = {"runs": runs, "seconds": seconds, "seeds": seeds,
                               "workloads": {}}
    for workload in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (
                summarize([r["metrics"][name]["value"] for r in block])
                for block in blocks[workload]
            )
            drift = worse_by(a["median"], b["median"], metric["better"])
            bound = metric["bound"]
            rows[name] = {"a": a, "b": b, "worse_by": drift, "bound": bound,
                          "ok": agree(a, b, drift, bound)}
        summary["workloads"][workload] = rows
    return summary


def render(summary: Dict[str, Any]) -> str:
    lines = [
        f"{summary['runs']} runs per block, {summary['seconds']} s each, "
        f"seeds {summary['seeds'][0]}..{summary['seeds'][-1]} in both blocks",
        "",
        "| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] "
        "| B spread | B worse by | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, rows in summary["workloads"].items():
        for name, row in rows.items():
            a, b = row["a"], row["b"]
            lines.append(
                f"| {workload} | {name} "
                f"| {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] "
                f"| {a['spread']:.1%} "
                f"| {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                f"| {b['spread']:.1%} | {row['worse_by']:+.1%} "
                f"| {row['bound']:.0%} | {'yes' if row['ok'] else 'NO'} |"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    summary = report(args.runs)
    print(render(summary))
    ok = all(row["ok"] for rows in summary["workloads"].values()
             for row in rows.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
