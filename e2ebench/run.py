"""End-to-end benchmark of the synopsis serving stack.

Run one workload from the repository root::

    python3 e2ebench/run.py --workload scalar-mix --seed 1 --seconds 30 --trace 0

It sets the system up, drives the workload's closed loop for ``--seconds``
seconds (default: ``run_seconds`` in ``BENCHMARK.json``), checks every
answer, prints each metric by name with its unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced cycles with cycles in which every layer is wrapped in
spans, and reports the per-layer metrics.  ``README.md`` explains the workloads
and what each metric measures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics a run reports, from BENCHMARK.json."""
    return {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}


def _import_system() -> None:
    """Put the repository's ``src`` on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no repro package under {src}")
    sys.path.insert(0, str(src))


def drive(
    workload: Any,
    seconds: Optional[float],
    cycles: Optional[int],
    tracer: Any = None,
    counters: Optional[Callable[[], Dict[str, float]]] = None,
) -> List[Any]:
    """Run cycles until the time is spent (at least one) or ``cycles`` ran.

    With a tracer, cycles alternate untraced and traced (the layer
    wrappers are installed for the odd ones), so drift over the run hits
    both sides alike; returns one tally per side.  ``cycles`` then counts
    each side's cycles.  The deltas of ``counters`` are taken around the
    traced cycles only, so they cover the same cycles as the spans.
    """
    import tracing
    from workloads import Tally

    tallies = [Tally()] if tracer is None else [Tally(), Tally()]
    deadline = time.perf_counter() + (seconds or 0.0)
    turn = 0
    while True:
        if cycles is not None:
            if tallies[-1].cycles >= cycles:
                break
        elif tallies[-1].cycles and time.perf_counter() >= deadline:
            break
        tally = tallies[turn % len(tallies)]
        if tally is tallies[0]:
            workload.cycle(tally)
        else:
            before = counters()
            tracing.install(tracer)
            workload.tracer = tracer
            try:
                workload.cycle(tally)
            finally:
                tracer.close()
                workload.tracer = None
            for key, value in counters().items():
                tally.counts[key] = tally.counts.get(key, 0.0) + value - before[key]
        tally.cycles += 1
        turn += 1
    return tallies


def end_to_end(tally: Any, setups: List[float]) -> Dict[str, float]:
    # Writes are pooled (total time over count), not a median: the host
    # switches between a fast and a slow speed every few seconds, about
    # half the time in each, and the median of the ~30 cohort writes of a
    # run jumps between the two modes (STEADINESS.md).
    return {
        "setup_s": statistics.median(setups),
        "read_p50_ms": statistics.median(tally.reads) * 1e3 if tally.reads else 0.0,
        "answers_per_s": tally.answers / sum(tally.reads) if tally.reads else 0.0,
        "write_mean_ms": (
            sum(tally.writes) / len(tally.writes) * 1e3 if tally.writes else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(
    name: str,
    seed: int,
    seconds: Optional[float] = None,
    cycles: Optional[int] = None,
    trace: bool = False,
    setups: Optional[int] = None,
) -> Dict[str, Any]:
    """One benchmark run in this process; returns the result object.

    With ``cycles`` set the run is a fixed amount of work instead of a
    time budget, so every count it reports repeats exactly for a seed.
    """
    import tracing
    import workloads
    from repro.obs import get_default_registry

    scratch = ROOT / ".e2ebench-tmp"
    scratch.mkdir(exist_ok=True)
    registry = get_default_registry()
    probed = registry.counter("plans_probed_total")
    reused = registry.counter("plans_reused_total")
    with tempfile.TemporaryDirectory(dir=scratch) as work, \
            workloads.quiet_slow_log() as slow_log:

        def counters() -> Dict[str, float]:
            return {"planner.plans_probed": probed.value,
                    "planner.plans_reused": reused.value,
                    "frontend.slow_log_entries": float(slow_log.count)}

        workload = workloads.WORKLOADS[name](seed, Path(work))
        setup_times = []
        try:
            # setup_s is the program's part of a set-up: the workload's
            # own input generation and checks are taken out.
            for _ in range(setups or workloads.SETUPS):
                untimed = workload.untimed_s
                started = time.perf_counter()
                warm = workload.setup()
                setup_times.append(time.perf_counter() - started
                                   - (workload.untimed_s - untimed))
            if not trace:
                phases = drive(workload, seconds, cycles)
                metrics = end_to_end(phases[0], setup_times)
            else:
                tracer = tracing.Tracer()
                phases = drive(workload, seconds, cycles, tracer, counters)
                traced = phases[1]
                metrics = tracing.layer_metrics(tracer.spans)
                metrics.update(workload.layer_metrics(traced))
                metrics.update(traced.counts)
                metrics["obs.metric_series"] = float(
                    len(workload.router.registry.collect())
                )
                metrics["trace.overhead_share"] = _overhead(*phases)
        finally:
            workload.close()
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        scratch.rmdir()
    units = metric_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"computed metrics {sorted(metrics)} differ from BENCHMARK.json's "
            f"{sorted(units)}"
        )
    # The last set-up's warm-up answers are checked like any others.
    attempted = sum(phase.attempted for phase in [warm, *phases])
    failed = sum(phase.failed for phase in [warm, *phases])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in units.items()
        },
    }


def _overhead(plain: Any, traced: Any) -> float:
    """Traced over untraced time per operation, minus one."""
    def per_op(tally: Any) -> float:
        ops = len(tally.reads) + len(tally.writes)
        return tally.op_seconds() / ops if ops else 0.0

    base = per_op(plain)
    return per_op(traced) / base - 1.0 if base else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scalar-mix", "vector-rw", "cohort-lifecycle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_system()
    result = run(args.workload, args.seed, seconds=args.seconds,
                 trace=bool(args.trace))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
